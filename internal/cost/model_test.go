package cost

import (
	"testing"

	"bitmapindex/internal/core"
	"bitmapindex/internal/flight"
	"bitmapindex/internal/telemetry"
)

// TestScansForExact proves the per-query prediction exact against the
// scans Eval charges for every operator and constant, across
// all three encodings and several decompositions — the property
// engine.ExplainAnalyze's scans_error=0 guarantee rests on.
func TestScansForExact(t *testing.T) {
	rows := []uint64{0, 3, 7, 11, 11, 2, 9, 4, 0, 6}
	const card = 12
	for _, base := range []core.Base{{12}, {4, 3}, {3, 2, 2}} {
		for _, enc := range []core.Encoding{
			core.RangeEncoded, core.EqualityEncoded, core.IntervalEncoded,
		} {
			ix, err := core.Build(rows, card, base, enc, nil)
			if err != nil {
				t.Fatalf("build %v/%v: %v", base, enc, err)
			}
			for _, op := range core.AllOps {
				for v := uint64(0); v < card+2; v++ { // incl. out-of-domain constants
					var st core.Stats
					ix.Eval(op, v, &core.EvalOptions{Stats: &st})
					if got := ScansFor(base, enc, card, op, v); got != st.Scans {
						t.Errorf("%v/%v A %v %d: predicted %d scans, measured %d",
							base, enc, op, v, got, st.Scans)
					}
				}
			}
		}
	}
}

// TestCostModelPublishesNoTelemetry: predicting scans is not querying.
// ScansFor and MeasuredTime (behind ExactTime for interval encoding, and
// so behind the design frontier and the workload advisor) must leave the
// query counters and the flight recorder untouched, for every encoding.
func TestCostModelPublishesNoTelemetry(t *testing.T) {
	base := core.Base{10, 10}
	const card = 100
	for _, enc := range []core.Encoding{
		core.RangeEncoded, core.EqualityEncoded, core.IntervalEncoded,
	} {
		q0, seq0 := telemetry.QueriesTotal.Value(), flight.Default().Seq()
		if MeasuredTime(base, enc, card) <= 0 {
			t.Fatalf("%v: MeasuredTime not positive", enc)
		}
		for _, op := range core.AllOps {
			ScansFor(base, enc, card, op, 55)
		}
		if q, seq := telemetry.QueriesTotal.Value(), flight.Default().Seq(); q != q0 || seq != seq0 {
			t.Fatalf("%v: bix_queries_total moved %d, flight records %d; want 0 and 0",
				enc, q-q0, seq-seq0)
		}
	}
}
