package core

import "bitmapindex/internal/bitvec"

// EvalRangeNaive evaluates (A op v) on a range-encoded index using
// Algorithm RangeEval, the O'Neil-Quass evaluation strategy the paper
// improves upon (Section 3, Figure 6 left; see compileRangeNaive). It is
// retained as the experimental baseline for Table 1 and Figure 8, and runs
// through the same executor as Eval, but publishes nothing to the
// process-wide telemetry registry or flight recorder.
func (ix *Index) EvalRangeNaive(op Op, v uint64, opt *EvalOptions) *bitvec.Vector {
	ix.mustBe(RangeEncoded)
	return ix.exec(compileRangeNaive(ix.shape(), op, v), opt)
}

func (ix *Index) mustBe(enc Encoding) {
	if ix.enc != enc {
		panic("core: evaluator called on " + ix.enc.String() + "-encoded index")
	}
}
