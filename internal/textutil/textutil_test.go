package textutil

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestNormalize(t *testing.T) {
	cases := map[string]string{
		"  Alice   Rossi ": "alice rossi",
		"ALICE":            "alice",
		"":                 "",
		"a  b\tc":          "a b c",
	}
	for in, want := range cases {
		if got := Normalize(in); got != want {
			t.Errorf("Normalize(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestJaro(t *testing.T) {
	if Jaro("", "") != 1 {
		t.Error("empty strings should have similarity 1")
	}
	if Jaro("abc", "") != 0 {
		t.Error("empty vs non-empty should be 0")
	}
	if Jaro("abc", "abc") != 1 {
		t.Error("identical should be 1")
	}
	if Jaro("abc", "xyz") != 0 {
		t.Error("disjoint should be 0")
	}
	// Classic example: MARTHA vs MARHTA ≈ 0.944.
	got := Jaro("martha", "marhta")
	if got < 0.94 || got > 0.95 {
		t.Errorf("Jaro(martha, marhta) = %f", got)
	}
}

func TestJaroWinkler(t *testing.T) {
	// Winkler boosts shared prefixes.
	if JaroWinkler("martha", "marhta") <= Jaro("martha", "marhta") {
		t.Error("Winkler should boost prefix matches")
	}
	got := JaroWinkler("martha", "marhta")
	if got < 0.96 || got > 0.97 { // canonical 0.961
		t.Errorf("JaroWinkler(martha, marhta) = %f", got)
	}
}

func TestJaroWinklerBounds(t *testing.T) {
	f := func(a, b string) bool {
		if len(a) > 20 {
			a = a[:20]
		}
		if len(b) > 20 {
			b = b[:20]
		}
		s := JaroWinkler(a, b)
		return s >= 0 && s <= 1.0000001
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSimilar(t *testing.T) {
	if !Similar("Alice Rossi", "alice  rossi", 0.9) {
		t.Error("normalized-equal names must match")
	}
	if !Similar("Alice Rossi", "Alice Rosi", 0.9) {
		t.Error("near-duplicate must match at 0.9")
	}
	if Similar("Alice Rossi", "Bruno Verdi", 0.9) {
		t.Error("different names must not match")
	}
}

// TestJaroWinklerASCIINoAlloc pins the byte path: short ASCII inputs
// are compared without touching the heap.
func TestJaroWinklerASCIINoAlloc(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		_ = JaroWinkler("giovanni rossi", "giovani rosssi")
	})
	if allocs != 0 {
		t.Errorf("JaroWinkler on ASCII allocated %.0f times per call", allocs)
	}
}

// TestJaroWinklerBound checks the bound against the exact score on
// random strings over a small alphabet (many shared and repeated
// characters, so the bound is often tight and slots overflow), on
// non-ASCII input and on empty strings.
func TestJaroWinklerBound(t *testing.T) {
	f := func(a, b []byte) bool {
		sa, sb := smallAlphabet(a), smallAlphabet(b)
		pa, pb := NewProfile(sa), NewProfile(sb)
		return JaroWinklerBound(&pa, &pb) >= JaroWinkler(sa, sb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
	for _, c := range [][2]string{{"", ""}, {"", "a"}, {"anna", "anna"}, {"élan", "elan"}, {strings.Repeat("a", 300), "a"}} {
		pa, pb := NewProfile(c[0]), NewProfile(c[1])
		if got, jw := JaroWinklerBound(&pa, &pb), JaroWinkler(c[0], c[1]); got < jw {
			t.Errorf("bound(%q, %q) = %v below the score %v", c[0], c[1], got, jw)
		}
	}
	pa, pb := NewProfile("abc"), NewProfile("xyz")
	if got := JaroWinklerBound(&pa, &pb); got != 0 {
		t.Errorf("disjoint strings bound at %v, want 0", got)
	}
}

func smallAlphabet(b []byte) string {
	if len(b) > 20 {
		b = b[:20]
	}
	alphabet := []rune("abcé1 ")
	out := make([]rune, len(b))
	for i, c := range b {
		out[i] = alphabet[int(c)%len(alphabet)]
	}
	return string(out)
}

// FuzzJaroWinkler: for ASCII input the byte path equals the rune path
// bit for bit, and for any input the profile bound never falls below
// the score.
func FuzzJaroWinkler(f *testing.F) {
	for _, c := range [][2]string{
		{"martha", "marhta"}, {"", ""}, {"a", ""}, {"alice rossi", "alcie rossi"},
		{"dixon", "dicksonx"}, {strings.Repeat("ab", 40), strings.Repeat("ba", 41)},
		{"zoë rossi", "zoe rossi"}, {"aaaa bbbb", "aaaaa bbb"},
	} {
		f.Add(c[0], c[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		jw, runeJW := JaroWinkler(a, b), jaroWinkler([]rune(a), []rune(b))
		if isASCII(a) && isASCII(b) {
			if math.Float64bits(jw) != math.Float64bits(runeJW) {
				t.Fatalf("JaroWinkler(%q, %q): byte path %v, rune path %v", a, b, jw, runeJW)
			}
			if bj, rj := Jaro(a, b), jaro([]rune(a), []rune(b)); math.Float64bits(bj) != math.Float64bits(rj) {
				t.Fatalf("Jaro(%q, %q): byte path %v, rune path %v", a, b, bj, rj)
			}
		}
		pa, pb := NewProfile(a), NewProfile(b)
		if bound := JaroWinklerBound(&pa, &pb); bound < jw {
			t.Fatalf("bound(%q, %q) = %v below the score %v", a, b, bound, jw)
		}
	})
}
