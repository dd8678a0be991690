package cost

import (
	"bitmapindex/internal/core"
)

// ScansFor predicts the number of stored-bitmap scans the evaluator
// performs for the single predicate (A op v) on an index with the given
// base, encoding and cardinality. It asks core for the compiled
// predicate's distinct value-bitmap refs, which is exactly what the
// evaluator charges: scan counts depend only on the predicate shape, never
// on the data. Out-of-domain constants (v >= card) read no value bitmap.
//
// This is the per-query prediction behind engine.ExplainAnalyze; the
// workload-average counterparts are TimeRange / TimeEquality / ExactTime.
func ScansFor(base core.Base, enc core.Encoding, card uint64, op core.Op, v uint64) int {
	return core.PredicateScans(base, enc, card, op, v)
}
