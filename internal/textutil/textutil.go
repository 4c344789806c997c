// Package textutil provides small text utilities shared across the
// library: string-similarity metrics used by the ETL entity-resolution
// step, and name normalization helpers.
package textutil

import (
	"math/bits"
	"strings"
	"unicode/utf8"
)

// Normalize lowercases, trims, and collapses internal whitespace — the
// canonical form compared during entity resolution.
func Normalize(s string) string {
	fields := strings.Fields(strings.ToLower(strings.TrimSpace(s)))
	return strings.Join(fields, " ")
}

// Jaro computes the Jaro similarity in [0,1].
func Jaro(a, b string) float64 {
	if isASCII(a) && isASCII(b) {
		var ba, bb [stackLen]byte
		return jaro(append(ba[:0], a...), append(bb[:0], b...))
	}
	return jaro([]rune(a), []rune(b))
}

// JaroWinkler computes the Jaro-Winkler similarity in [0,1] with the
// standard prefix scale 0.1 and max prefix 4. ASCII inputs of up to 64
// bytes are compared byte-wise without heap allocation; anything else
// is compared rune-wise. Both paths compute the same value, bit for bit.
func JaroWinkler(a, b string) float64 {
	if isASCII(a) && isASCII(b) {
		var ba, bb [stackLen]byte
		return jaroWinkler(append(ba[:0], a...), append(bb[:0], b...))
	}
	return jaroWinkler([]rune(a), []rune(b))
}

// Similar reports whether two names refer to the same entity under the
// threshold used by the ETL matcher (Jaro-Winkler on normalized forms).
func Similar(a, b string, threshold float64) bool {
	na, nb := Normalize(a), Normalize(b)
	if na == nb {
		return true
	}
	return JaroWinkler(na, nb) >= threshold
}

// Profile summarises a string for JaroWinklerBound in a fixed size: its
// length and first runes, and an occurrence set — one bit per
// (character, occurrence) slot, so that the common characters of two
// strings, counted with multiplicity, are the popcount of the
// intersection. Occurrences without a slot (rare characters, a fourth
// repeat) are only counted.
type Profile struct {
	n     int32 // length in runes (for ASCII, in bytes)
	spill int32 // occurrences without a slot in bits
	bits  [2]uint64
	head  [4]rune // first runes, -1 past the end
}

// slotBase and slotCap lay the occurrence slots out over the 128 bits
// of Profile.bits: three per letter and per space, two per digit.
var slotBase, slotCap = func() (base, width [utf8.RuneSelf]uint8) {
	next := uint8(0)
	alloc := func(c byte, n uint8) {
		base[c], width[c] = next, n
		next += n
	}
	for c := byte('a'); c <= 'z'; c++ {
		alloc(c, 3)
	}
	for c := byte('0'); c <= '9'; c++ {
		alloc(c, 2)
	}
	alloc(' ', 3)
	return base, width
}()

// NewProfile summarises s for JaroWinklerBound.
func NewProfile(s string) Profile {
	p := Profile{head: [4]rune{-1, -1, -1, -1}}
	var seen [utf8.RuneSelf]uint8
	for _, r := range s {
		if p.n < 4 {
			p.head[p.n] = r
		}
		p.n++
		if r >= utf8.RuneSelf || seen[r] == slotCap[r] {
			p.spill++
			continue
		}
		slot := slotBase[r] + seen[r]
		seen[r]++
		p.bits[slot/64] |= 1 << (slot % 64)
	}
	return p
}

// JaroWinklerBound returns an upper bound on JaroWinkler(a, b) computed
// from the profiles of a and b alone: Jaro pairs only equal characters,
// so its match count is at most the characters the two strings share
// with multiplicity; transpositions only lower the score; and the
// Winkler prefix is the actual common prefix.
func JaroWinklerBound(a, b *Profile) float64 {
	if a.n == 0 && b.n == 0 {
		return 1
	}
	m := bits.OnesCount64(a.bits[0]&b.bits[0]) + bits.OnesCount64(a.bits[1]&b.bits[1]) + int(min(a.spill, b.spill))
	if m == 0 {
		return 0
	}
	p := 0
	for p < 4 && a.head[p] >= 0 && a.head[p] == b.head[p] {
		p++
	}
	fm := float64(m)
	return winkler((fm/float64(a.n)+fm/float64(b.n)+1)/3, p)
}

// stackLen is the input length up to which the comparison buffers live
// on the stack.
const stackLen = 64

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// jaroWinkler is JaroWinkler over code units: bytes for ASCII input,
// runes otherwise (for ASCII the two sequences are identical).
func jaroWinkler[T byte | rune](a, b []T) float64 {
	j := jaro(a, b)
	p := 0
	for p < len(a) && p < len(b) && p < 4 && a[p] == b[p] {
		p++
	}
	return winkler(j, p)
}

// winkler boosts Jaro similarity j by a common prefix of length p.
func winkler(j float64, p int) float64 {
	return j + float64(p)*0.1*(1-j)
}

func jaro[T byte | rune](a, b []T) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	window := len(a)
	if len(b) > window {
		window = len(b)
	}
	window = window/2 - 1
	if window < 0 {
		window = 0
	}
	var fa, fb [stackLen]bool
	matchA, matchB := flags(fa[:], len(a)), flags(fb[:], len(b))
	matches := 0
	for i := range a {
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		hi := i + window + 1
		if hi > len(b) {
			hi = len(b)
		}
		for j := lo; j < hi; j++ {
			if matchB[j] || a[i] != b[j] {
				continue
			}
			matchA[i] = true
			matchB[j] = true
			matches++
			break
		}
	}
	if matches == 0 {
		return 0
	}
	// Count transpositions.
	trans := 0
	j := 0
	for i := range a {
		if !matchA[i] {
			continue
		}
		for !matchB[j] {
			j++
		}
		if a[i] != b[j] {
			trans++
		}
		j++
	}
	m := float64(matches)
	return (m/float64(len(a)) + m/float64(len(b)) + (m-float64(trans)/2)/m) / 3
}

// flags returns n cleared match flags, in buf when it is large enough.
func flags(buf []bool, n int) []bool {
	if n <= len(buf) {
		return buf[:n]
	}
	return make([]bool, n)
}
