package engine

import (
	"testing"

	"bitmapindex/internal/core"
	"bitmapindex/internal/telemetry"
	"bitmapindex/internal/workload"
)

// TestSelectFeedsWorkload: the bitmap-merge plans report one event per
// predicate into Request.Workload, for both the serial and the
// segmented evaluator and for the fused count path.
func TestSelectFeedsWorkload(t *testing.T) {
	rel := buildRelation(t, 2000, 5)
	var infos []workload.AttrInfo
	for _, name := range rel.ColumnNames() {
		c, _ := rel.Column(name)
		infos = append(infos, workload.AttrInfo{Name: name, Card: c.Card()})
	}
	wl := workload.NewWithRegistry(telemetry.New(), infos)

	preds := []Pred{
		{Col: "quantity", Op: core.Le, Val: 25},
		{Col: "region", Op: core.Eq, Val: 3},
	}
	for _, workers := range []int{0, 2} {
		req := Request{Preds: preds, Method: BitmapMerge, Workers: workers, Workload: wl}
		if _, _, err := rel.Select(req); err != nil {
			t.Fatal(err)
		}
	}
	p := wl.Snapshot()
	byName := map[string]workload.AttrProfile{}
	for _, ap := range p.Attrs {
		byName[ap.Name] = ap
	}
	if got := byName["quantity"]; got.Range != 2 || got.Eq != 0 {
		t.Errorf("quantity counts = %d range / %d eq, want 2/0", got.Range, got.Eq)
	}
	if got := byName["region"]; got.Eq != 2 || got.Range != 0 {
		t.Errorf("region counts = %d eq / %d range, want 2/0", got.Eq, got.Range)
	}
	if byName["quantity"].Scans == 0 || byName["region"].Scans == 0 {
		t.Error("predicate scans not attributed")
	}
	if byName["price"].Queries() != 0 {
		t.Error("untouched attribute accumulated queries")
	}

	// The fused count path records the result cardinality (single
	// predicate counts straight off the evaluator).
	_, c, err := rel.Select(Request{Preds: preds[:1], Method: BitmapMerge, Count: true, Workload: wl})
	if err != nil {
		t.Fatal(err)
	}
	n := c.Rows
	q := wl.Snapshot()
	for _, ap := range q.Attrs {
		if ap.Name != "quantity" {
			continue
		}
		if ap.Range != 3 {
			t.Errorf("quantity range count after count query = %d, want 3", ap.Range)
		}
		if n > 0 && sumHist(ap.Selectivity) == 0 {
			t.Error("count path did not record selectivity")
		}
	}
}

func sumHist(h []int64) int64 {
	var t int64
	for _, v := range h {
		t += v
	}
	return t
}
