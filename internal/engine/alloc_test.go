package engine

import (
	"math"
	"testing"

	"bitmapindex/internal/core"
	"bitmapindex/internal/invariant"
)

// allocRows is sized so a result bitvec (rows/8 bytes) is a large heap
// object (>32KB). The runtime credits large allocations to the
// /gc/heap/allocs counters immediately, while small-object counts are only
// flushed at span refills — so only plans that materialize large vectors
// have a delta the test can assert deterministically.
const allocRows = 300_000

// TestSelectReportsAllocDeltas checks plan execution accounts its heap
// allocations into the cost: a materializing plan over allocRows rows
// necessarily allocates at least its result vector.
func TestSelectReportsAllocDeltas(t *testing.T) {
	rel := buildRelation(t, allocRows, 7)
	preds := []Pred{{Col: "quantity", Op: core.Le, Val: 25}}
	for _, m := range []Method{FullScan, BitmapMerge} {
		_, c, err := rel.Select(Request{Preds: preds, Method: m})
		if err != nil {
			t.Fatal(err)
		}
		if c.AllocBytes < allocRows/8 || c.AllocObjects <= 0 {
			t.Errorf("method %v: alloc delta %d bytes / %d objects, below the %d-byte result-vector floor",
				m, c.AllocBytes, c.AllocObjects, allocRows/8)
		}
	}
}

// TestAutoSelectAccountsAllocs checks the Auto dispatch reaches the
// concrete plan's accounting rather than returning zeros. The count path
// uses two predicates so at least one intermediate bitmap must
// materialize even with the fused count pushdown.
func TestAutoSelectAccountsAllocs(t *testing.T) {
	rel := buildRelation(t, allocRows, 7)
	preds := []Pred{
		{Col: "quantity", Op: core.Ge, Val: 40},
		{Col: "region", Op: core.Le, Val: 5},
	}
	_, c, err := rel.Select(Request{Preds: preds, Method: Auto})
	if err != nil {
		t.Fatal(err)
	}
	if c.AllocBytes < allocRows/8 {
		t.Errorf("auto plan alloc delta %d bytes, below the %d-byte result-vector floor",
			c.AllocBytes, allocRows/8)
	}
	_, cc, err := rel.Select(Request{Preds: preds, Method: BitmapMerge, Count: true})
	if err != nil {
		t.Fatal(err)
	}
	if cc.Rows != c.Rows {
		t.Fatalf("count %d != select rows %d", cc.Rows, c.Rows)
	}
	if cc.AllocBytes < allocRows/8 {
		t.Errorf("fused count alloc delta %d bytes, below the %d-byte intermediate floor",
			cc.AllocBytes, allocRows/8)
	}
}

// TestCountModeBuildsNoResultVector guards the count pushdown: counting
// with FullScan, or with a single predicate on the bitmap plan, on the
// calling goroutine or on the segment pool, must not allocate a rows/8
// result vector. Each case is measured after a
// warm-up run, and the smallest of several runs is compared, so pooled
// segment registers and small-object span refills are not counted. Under
// -tags bixdebug every core evaluation re-runs its program into a fresh
// vector for the window-split cross-check, so the bitmap case is checked
// in normal builds only.
func TestCountModeBuildsNoResultVector(t *testing.T) {
	rel := buildRelation(t, allocRows, 7)
	preds := []Pred{{Col: "quantity", Op: core.Le, Val: 25}}
	reqs := []Request{{Preds: preds, Method: FullScan, Count: true}}
	if !invariant.Enabled {
		reqs = append(reqs,
			Request{Preds: preds, Method: BitmapMerge, Count: true},
			Request{Preds: preds, Method: BitmapMerge, Count: true, Workers: 2})
	}
	for _, req := range reqs {
		if _, _, err := rel.Select(req); err != nil {
			t.Fatal(err)
		}
		least := int64(math.MaxInt64)
		for i := 0; i < 5; i++ {
			_, c, err := rel.Select(req)
			if err != nil {
				t.Fatal(err)
			}
			least = min(least, c.AllocBytes)
		}
		if least >= allocRows/8 {
			t.Errorf("%v count (workers=%d): allocated at least %d bytes per run, a %d-byte result vector",
				req.Method, req.Workers, least, allocRows/8)
		}
	}
}
