package relation

import "sync/atomic"

// ExecMode selects the execution strategy of the relational operators.
//
// The vectorized mode is the default: operators bind expressions to column
// indices once, hash and group through interned comparable keys, and
// materialize output rows out of flat arenas. The row-at-a-time mode keeps
// the original tuple-at-a-time implementations alive as an executable
// reference: the benchmark suite runs both in one invocation to record the
// perf trajectory, and the equivalence tests use it as the oracle the
// vectorized kernels must match byte for byte.
type ExecMode int32

// Execution modes.
const (
	// ExecVectorized runs the batch/columnar kernels (default).
	ExecVectorized ExecMode = iota
	// ExecRowAtATime runs the reference tuple-at-a-time implementations.
	ExecRowAtATime
)

// String names the mode for logs and benchmark labels.
func (m ExecMode) String() string {
	if m == ExecRowAtATime {
		return "row"
	}
	return "vectorized"
}

var execMode atomic.Int32

// SetExecMode switches the process-wide execution mode and returns the
// previous one. Both modes produce identical results (rows, lineage,
// column origins, errors); only the execution strategy differs.
func SetExecMode(m ExecMode) ExecMode {
	return ExecMode(execMode.Swap(int32(m)))
}

// CurrentExecMode returns the process-wide execution mode.
func CurrentExecMode() ExecMode {
	return ExecMode(execMode.Load())
}
