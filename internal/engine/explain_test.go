package engine

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"bitmapindex/internal/core"
	"bitmapindex/internal/telemetry"
)

// TestExplainAnalyzeExactScans is the acceptance pin for the scan model:
// on the bitmap plan with serial evaluators, predicted scans equal
// measured scans exactly — per predicate and for the whole plan — so
// every relative error is zero.
func TestExplainAnalyzeExactScans(t *testing.T) {
	rel := buildRelation(t, 3000, 1)
	queries := [][]Pred{
		{{Col: "quantity", Op: core.Le, Val: 10}},
		{{Col: "quantity", Op: core.Gt, Val: 45}, {Col: "region", Op: core.Eq, Val: 3}},
		{{Col: "price", Op: core.Ge, Val: 2500}, {Col: "quantity", Op: core.Lt, Val: 25}},
		{{Col: "quantity", Op: core.Eq, Val: 7}, {Col: "price", Op: core.Le, Val: 4000}, {Col: "region", Op: core.Ge, Val: 2}},
		{{Col: "quantity", Op: core.Eq, Val: 999}}, // absent constant -> trivial none
	}
	before := telemetry.CostModelErrorScans.Count()
	for qi, preds := range queries {
		rep, err := rel.ExplainAnalyze(Request{Preds: preds, Method: BitmapMerge})
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		if !rep.ModelApplies || rep.Method != "P3-bitmapmerge" {
			t.Fatalf("query %d: model_applies=%v method=%s", qi, rep.ModelApplies, rep.Method)
		}
		if rep.ScansError != 0 {
			t.Errorf("query %d: plan scans error %v (predicted %d, measured %d)",
				qi, rep.ScansError, rep.PredictedScans, rep.MeasuredScans)
		}
		if len(rep.Preds) != len(preds) {
			t.Fatalf("query %d: %d pred nodes for %d preds", qi, len(rep.Preds), len(preds))
		}
		for i, node := range rep.Preds {
			if node.ScansError != 0 {
				t.Errorf("query %d pred %d (%s): scans error %v (predicted %d, measured %d)",
					qi, i, node.Pred, node.ScansError, node.PredictedScans, node.MeasuredScans)
			}
			if node.Encoding != "range" || node.SpaceBitmaps == 0 {
				t.Errorf("query %d pred %d: design fields = %+v", qi, i, node)
			}
		}
		// Cross-check the reported actuals against a plain Select.
		_, c, err := rel.Select(Request{Preds: preds, Method: BitmapMerge})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Rows != c.Rows || rep.MeasuredScans != c.Stats.Scans {
			t.Errorf("query %d: report rows/scans %d/%d, Select measured %d/%d",
				qi, rep.Rows, rep.MeasuredScans, c.Rows, c.Stats.Scans)
		}
	}
	if got := telemetry.CostModelErrorScans.Count() - before; got != int64(len(queries)) {
		t.Errorf("scan-error histogram grew by %d, want %d", got, len(queries))
	}
}

// TestExplainAnalyzeTrivialPredicate pins the degenerate-constant paths:
// a constant below the whole dictionary matches everything (zero scans,
// predicted and measured agree) and one above it under Eq matches nothing
// (the dictionary flags it trivial-none).
func TestExplainAnalyzeTrivialPredicate(t *testing.T) {
	rel := buildRelation(t, 500, 3)
	rep, err := rel.ExplainAnalyze(Request{Preds: []Pred{{Col: "region", Op: core.Ge, Val: -5}}, Method: BitmapMerge})
	if err != nil {
		t.Fatal(err)
	}
	node := rep.Preds[0]
	if node.PredictedScans != 0 || node.MeasuredScans != 0 || node.ScansError != 0 {
		t.Fatalf("match-all node = %+v", node)
	}
	if rep.Rows != 500 {
		t.Fatalf("rows = %d, want all 500", rep.Rows)
	}

	rep, err = rel.ExplainAnalyze(Request{Preds: []Pred{{Col: "region", Op: core.Eq, Val: 999}}, Method: BitmapMerge})
	if err != nil {
		t.Fatal(err)
	}
	node = rep.Preds[0]
	if node.Trivial != "none" || node.PredictedScans != 0 || node.MeasuredScans != 0 {
		t.Fatalf("match-none node = %+v", node)
	}
	if rep.Rows != 0 {
		t.Fatalf("rows = %d, want 0", rep.Rows)
	}
}

// TestExplainAnalyzeTimeCalibration checks the live time model: after one
// analyzed query seeds the ns-per-scan EWMA, subsequent reports carry a
// prediction and a non-negative out-of-sample error.
func TestExplainAnalyzeTimeCalibration(t *testing.T) {
	rel := buildRelation(t, 2000, 5)
	preds := []Pred{{Col: "price", Op: core.Le, Val: 2000}}
	if _, err := rel.ExplainAnalyze(Request{Preds: preds, Method: BitmapMerge}); err != nil {
		t.Fatal(err)
	}
	rep, err := rel.ExplainAnalyze(Request{Preds: preds, Method: BitmapMerge})
	if err != nil {
		t.Fatal(err)
	}
	if rep.PredictedNS <= 0 || rep.TimeError < 0 {
		t.Fatalf("calibrated report: predicted_ns=%v time_error=%v", rep.PredictedNS, rep.TimeError)
	}
}

// TestExplainAnalyzeNonBitmapPlan checks plans that never read a stored
// bitmap do not claim (or pollute) model accuracy.
func TestExplainAnalyzeNonBitmapPlan(t *testing.T) {
	rel := buildRelation(t, 500, 7)
	before := telemetry.CostModelErrorScans.Count()
	rep, err := rel.ExplainAnalyze(Request{Preds: []Pred{{Col: "quantity", Op: core.Le, Val: 10}}, Method: FullScan})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ModelApplies || rep.Method != "P1-fullscan" {
		t.Fatalf("fullscan report: %+v", rep)
	}
	if rep.PredictedScans == 0 {
		t.Error("prediction nodes should still carry the model's scans")
	}
	if rep.MeasuredScans != 0 {
		t.Errorf("fullscan measured %d scans", rep.MeasuredScans)
	}
	if telemetry.CostModelErrorScans.Count() != before {
		t.Error("non-bitmap plan recorded model error")
	}
}

// TestExplainAnalyzeJSON checks the report marshals with the documented
// field names (the wire contract of /query?analyze=1).
func TestExplainAnalyzeJSON(t *testing.T) {
	rel := buildRelation(t, 500, 9)
	rep, err := rel.ExplainAnalyze(Request{Preds: []Pred{{Col: "region", Op: core.Eq, Val: 3}}, Method: Auto})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`"query"`, `"method"`, `"trace_id"`, `"predicted_scans"`,
		`"measured_scans"`, `"scans_error"`, `"model_applies"`, `"preds"`,
	} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("report JSON missing %s: %s", want, raw)
		}
	}
}

// TestAnalyzeIndexQuery covers the single-index path the server uses:
// prediction is exact against the measured stats of a direct evaluation.
func TestAnalyzeIndexQuery(t *testing.T) {
	vals := []uint64{0, 3, 7, 11, 2, 9, 4, 0, 6, 1}
	ix, err := core.Build(vals, 12, core.Base{4, 3}, core.RangeEncoded, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := telemetry.NewTrace("A <= 7")
	var st core.Stats
	t0 := time.Now()
	ix.Eval(core.Le, 7, &core.EvalOptions{Stats: &st, Trace: tr})
	rep := AnalyzeIndexQuery("A <= 7", "eval-range", ix.Base(), ix.Encoding(),
		ix.Cardinality(), core.Le, 7, st, time.Since(t0), tr)
	if !rep.ModelApplies || rep.ScansError != 0 || rep.MeasuredScans != st.Scans {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Preds[0].Base != "<3,4>" || rep.Preds[0].SpaceBitmaps == 0 {
		t.Fatalf("pred node = %+v", rep.Preds[0])
	}
}
