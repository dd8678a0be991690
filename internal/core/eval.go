package core

import (
	"fmt"

	"bitmapindex/internal/bitvec"
	"bitmapindex/internal/telemetry"
)

// Op is a selection predicate comparison operator. The paper's query class
// is Q = {A op v : op in {<, <=, >, >=, =, !=}, 0 <= v < C}.
type Op uint8

const (
	Lt Op = iota // A < v
	Le           // A <= v
	Gt           // A > v
	Ge           // A >= v
	Eq           // A = v
	Ne           // A != v
)

// AllOps lists every operator, in a fixed order, for exhaustive sweeps.
var AllOps = []Op{Lt, Le, Gt, Ge, Eq, Ne}

// String returns the SQL-ish spelling of the operator.
func (op Op) String() string {
	switch op {
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	case Eq:
		return "="
	case Ne:
		return "!="
	default:
		return fmt.Sprintf("Op(%d)", uint8(op))
	}
}

// IsRange reports whether the operator is a range operator (<, <=, >, >=)
// as opposed to an equality operator (=, !=).
func (op Op) IsRange() bool { return op <= Ge }

// ParseOp parses an operator spelling ("<", "<=", ">", ">=", "=", "==",
// "!=", "<>").
func ParseOp(s string) (Op, error) {
	switch s {
	case "<":
		return Lt, nil
	case "<=":
		return Le, nil
	case ">":
		return Gt, nil
	case ">=":
		return Ge, nil
	case "=", "==":
		return Eq, nil
	case "!=", "<>":
		return Ne, nil
	}
	return 0, fmt.Errorf("core: unknown operator %q", s)
}

// Matches reports whether value a satisfies the predicate (a op v). It is
// the scalar reference semantics every evaluator must agree with.
func (op Op) Matches(a, v uint64) bool {
	switch op {
	case Lt:
		return a < v
	case Le:
		return a <= v
	case Gt:
		return a > v
	case Ge:
		return a >= v
	case Eq:
		return a == v
	case Ne:
		return a != v
	default:
		panic("core: invalid op")
	}
}

// Stats accumulates the paper's two cost measures while evaluating queries:
// the number of bitmap scans (distinct stored bitmaps read, the I/O metric)
// and the number of bitmap operations by kind (the CPU metric). A single
// Stats may be reused across queries; the counters only ever accumulate.
type Stats struct {
	Scans int // distinct stored bitmaps read
	Ands  int
	Ors   int
	Xors  int
	Nots  int
}

// Ops returns the total number of bitmap operations.
func (s *Stats) Ops() int { return s.Ands + s.Ors + s.Xors + s.Nots }

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Scans += o.Scans
	s.Ands += o.Ands
	s.Ors += o.Ors
	s.Xors += o.Xors
	s.Nots += o.Nots
}

// EvalOptions tunes a single evaluation.
type EvalOptions struct {
	// SegConfig sets the segment width and the number of goroutines the
	// evaluation runs on; the zero value is the calling goroutine only.
	SegConfig
	// Stats, when non-nil, accumulates scan and operation counts.
	Stats *Stats
	// Buffered, when non-nil, reports whether stored bitmap slot j of
	// component i is resident in the bitmap buffer; reads of buffered
	// bitmaps do not count as scans (paper Section 10).
	Buffered func(comp, slot int) bool
	// Fetch, when non-nil, overrides in-memory bitmap access: the
	// evaluator obtains stored bitmap slot j of component i by calling
	// Fetch(i, j), once per distinct bitmap per evaluation and right after
	// Buffered, if set, was asked about the same bitmap. Required for
	// shell indexes (NewShell); the returned vector must have Rows() bits
	// and must not be retained or mutated by Fetch after returning.
	// Buffered and Fetch are called sequentially on the calling goroutine
	// before any segment work starts, whatever Workers is, so neither
	// needs to be safe for concurrent use; the fetched bitmaps are only
	// read concurrently.
	Fetch func(comp, slot int) *bitvec.Vector
	// Trace, when non-nil, accumulates per-phase wall-clock durations
	// (bitmap fetch, boolean ops, ...) for this evaluation.
	Trace *telemetry.Trace
}

// addRun accumulates one evaluation's scans and operation counts into s;
// a nil s is a no-op.
func (s *Stats) addRun(scans int, ops Stats) {
	if s == nil {
		return
	}
	s.Add(ops)
	s.Scans += scans
}

// Eval evaluates the selection predicate (A op v) and returns the bitmap of
// qualifying records. For range-encoded indexes it uses RangeEval-Opt; for
// equality- and interval-encoded indexes the evaluators of those
// encodings. v may be any uint64; values >= Cardinality are handled by
// their natural semantics.
//
// The predicate is compiled into a bitmap program (segprog.go) that runs
// over the rows a window of 2^SegBits bits at a time, on the calling
// goroutine or, when opt.Workers > 1, on the segment worker pool too.
//
// Every Eval also publishes its scan and operation counts plus wall-clock
// latency to the process-wide telemetry registry (telemetry.Default) and
// the flight recorder, so the paper's two cost measures are observable
// without threading a Stats through every caller.
func (ix *Index) Eval(op Op, v uint64, opt *EvalOptions) *bitvec.Vector {
	res, _ := ix.segRun(op, v, opt, segMaterialize)
	return res
}

// Count evaluates (A op v) exactly like Eval and returns only the number
// of qualifying records: each window is popcounted as it is combined, so
// no result vector is built. Stats and telemetry are Eval's.
func (ix *Index) Count(op Op, v uint64, opt *EvalOptions) int {
	_, n := ix.segRun(op, v, opt, segCount)
	return n
}

// Flight-recorder plan tags of the core evaluators. The engine's plan
// methods and the HTTP layer use their own tags; records from nested
// layers share the same trace ID, so a /debug/queries reader can join an
// engine-level record to the per-index evaluations beneath it.
const (
	planEvalRange     = "eval-range"
	planEvalEquality  = "eval-equality"
	planEvalInterval  = "eval-interval"
	planEvalSegmented = "eval-segmented"
)

// evalPlan returns Eval's plan tag for the index's encoding.
func (ix *Index) evalPlan() string {
	switch ix.enc {
	case RangeEncoded:
		return planEvalRange
	case EqualityEncoded:
		return planEvalEquality
	default:
		return planEvalInterval
	}
}

// EvalBetween evaluates the two-sided range predicate (lo <= A <= hi) as
// LE(hi) AND NOT LE(lo-1), two one-sided evaluations regardless of
// encoding (at most 2(2n-1) scans on a range-encoded index). An empty
// interval (lo > hi) matches nothing.
func (ix *Index) EvalBetween(lo, hi uint64, opt *EvalOptions) *bitvec.Vector {
	if lo > hi {
		return bitvec.New(ix.rows)
	}
	upper := ix.Eval(Le, hi, opt)
	if lo == 0 {
		return upper
	}
	lower := ix.Eval(Le, lo-1, opt)
	upper.AndNot(lower)
	return upper
}
