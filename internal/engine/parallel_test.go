package engine

import (
	"testing"

	"bitmapindex/internal/core"
	"bitmapindex/internal/telemetry"
)

var parallelQueries = [][]Pred{
	{{Col: "quantity", Op: core.Le, Val: 10}},
	{{Col: "quantity", Op: core.Gt, Val: 45}, {Col: "region", Op: core.Eq, Val: 3}},
	{{Col: "price", Op: core.Ge, Val: 2500}, {Col: "quantity", Op: core.Lt, Val: 25}},
	{{Col: "quantity", Op: core.Eq, Val: 7}, {Col: "price", Op: core.Le, Val: 4000}, {Col: "region", Op: core.Ge, Val: 2}},
	{{Col: "quantity", Op: core.Eq, Val: 999}}, // absent constant
}

// noAllocs strips the run-dependent allocation deltas so cost comparisons
// pin only the deterministic accounting (bytes, rows, stats).
func noAllocs(c Cost) Cost {
	c.AllocBytes, c.AllocObjects = 0, 0
	return c
}

// TestSelectOptsParallelMatchesSerial pins the segmented bitmap plan to the
// serial one: same result bitmap, same stats, same bytes.
func TestSelectOptsParallelMatchesSerial(t *testing.T) {
	rel := buildRelation(t, 3000, 7)
	for qi, preds := range parallelQueries {
		want, wc, err := rel.Select(Request{Preds: preds, Method: BitmapMerge})
		if err != nil {
			t.Fatalf("query %d serial: %v", qi, err)
		}
		got, gc, err := rel.Select(Request{Preds: preds, Method: BitmapMerge, Workers: 3, SegBits: 10})
		if err != nil {
			t.Fatalf("query %d parallel: %v", qi, err)
		}
		if !got.Equal(want) {
			t.Fatalf("query %d: parallel bitmap plan differs from serial", qi)
		}
		if noAllocs(gc) != noAllocs(wc) {
			t.Fatalf("query %d: parallel cost %+v != serial cost %+v", qi, gc, wc)
		}
	}
}

// TestSelectCountAllPlans checks the count pushdown of every plan against
// the materializing Select, with and without segment parallelism.
// Count mode returns no result vector.
func TestSelectCountAllPlans(t *testing.T) {
	rel := buildRelation(t, 3000, 7)
	for qi, preds := range parallelQueries {
		want, _, err := rel.Select(Request{Preds: preds, Method: FullScan})
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		wantN := want.Count()
		for _, m := range []Method{FullScan, IndexFilter, RIDMerge, BitmapMerge, Auto} {
			for _, workers := range []int{0, 2} {
				req := Request{Preds: preds, Method: m, Count: true, Workers: workers, SegBits: 10}
				res, c, err := rel.Select(req)
				if err != nil {
					t.Fatalf("query %d method %v: %v", qi, m, err)
				}
				if res != nil {
					t.Fatalf("query %d method %v: count mode returned a result vector", qi, m)
				}
				if c.Rows != wantN {
					t.Fatalf("query %d method %v (workers=%d): count %d, want %d", qi, m, workers, c.Rows, wantN)
				}
			}
		}
	}
}

// TestSelectCountBitmapCostMatchesSelect checks that the fused bitmap count
// reports the same bytes and stats as the materializing plan (the pushdown
// is a CPU/memory optimization, not an accounting change).
func TestSelectCountBitmapCostMatchesSelect(t *testing.T) {
	rel := buildRelation(t, 3000, 7)
	for qi, preds := range parallelQueries {
		_, wc, err := rel.Select(Request{Preds: preds, Method: BitmapMerge})
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		_, cc, err := rel.Select(Request{Preds: preds, Method: BitmapMerge, Count: true})
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		if noAllocs(cc) != noAllocs(wc) {
			t.Fatalf("query %d: count cost %+v != select cost %+v", qi, cc, wc)
		}
	}
}

func TestSelectCountErrors(t *testing.T) {
	rel := buildRelation(t, 500, 1)
	if _, _, err := rel.Select(Request{Method: FullScan, Count: true}); err == nil {
		t.Fatal("empty predicate list: want error")
	}
	if _, _, err := rel.Select(Request{Preds: []Pred{{Col: "nope", Op: core.Eq, Val: 1}}, Method: FullScan, Count: true}); err == nil {
		t.Fatal("unknown column: want error")
	}
	if _, _, err := rel.Select(Request{Preds: []Pred{{Col: "quantity", Op: core.Eq, Val: 1}}, Method: Method(99), Count: true}); err == nil {
		t.Fatal("unknown method: want error")
	}
	bare := NewRelation("bare")
	if _, err := bare.AddInt64("v", []int64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := bare.Select(Request{Preds: []Pred{{Col: "v", Op: core.Eq, Val: 1}}, Method: BitmapMerge, Count: true}); err == nil {
		t.Fatal("missing bitmap index: want error")
	}
	if _, _, err := bare.Select(Request{Preds: []Pred{{Col: "v", Op: core.Eq, Val: 1}}, Method: IndexFilter, Count: true}); err == nil {
		t.Fatal("missing RID index: want error")
	}
}

// TestSelectCountTracesSegments checks that the parallel count path records
// per-segment spans into the trace.
func TestSelectCountTracesSegments(t *testing.T) {
	rel := buildRelation(t, 3000, 7)
	tr := telemetry.NewTrace("count")
	req := Request{Preds: parallelQueries[0], Method: BitmapMerge, Count: true,
		Trace: tr, Workers: 2, SegBits: 10}
	if _, _, err := rel.Select(req); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ph := range tr.Phases() {
		if ph.Phase == telemetry.PhaseSegments && ph.Calls > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("parallel count recorded no segment spans")
	}
}
