package engine

import (
	"math/rand"
	"testing"

	"bitmapindex/internal/core"
	"bitmapindex/internal/flight"
	"bitmapindex/internal/telemetry"
)

// randomExpr builds a random expression tree over the given predicates.
func randomExpr(r *rand.Rand, preds []Pred, depth int) Expr {
	if depth == 0 || r.Intn(3) == 0 {
		return Leaf(preds[r.Intn(len(preds))])
	}
	switch r.Intn(3) {
	case 0:
		return All(randomExpr(r, preds, depth-1), randomExpr(r, preds, depth-1))
	case 1:
		return Any(randomExpr(r, preds, depth-1), randomExpr(r, preds, depth-1))
	default:
		return Not(randomExpr(r, preds, depth-1))
	}
}

// TestExprBitmapMatchesScan: for random expression trees, the bitmap
// evaluation must equal the row-at-a-time scan.
func TestExprBitmapMatchesScan(t *testing.T) {
	rel := buildRelation(t, 2500, 9)
	r := rand.New(rand.NewSource(10))
	preds := []Pred{
		{Col: "quantity", Op: core.Le, Val: 15},
		{Col: "quantity", Op: core.Gt, Val: 40},
		{Col: "price", Op: core.Ge, Val: 2000},
		{Col: "region", Op: core.Eq, Val: 3},
		{Col: "region", Op: core.Ne, Val: 0},
		{Col: "price", Op: core.Lt, Val: 100},
	}
	for trial := 0; trial < 60; trial++ {
		e := randomExpr(r, preds, 3)
		scan, scanCost, err := rel.Select(Request{Expr: e, Method: FullScan})
		if err != nil {
			t.Fatalf("%s: %v", e, err)
		}
		bm, bmCost, err := rel.Select(Request{Expr: e, Method: BitmapMerge})
		if err != nil {
			t.Fatalf("%s: %v", e, err)
		}
		if !scan.Equal(bm) {
			t.Fatalf("expression %s: bitmap result differs from scan", e)
		}
		if scanCost.Rows != bmCost.Rows {
			t.Fatalf("expression %s: row counts differ", e)
		}
		if bmCost.BytesRead < 0 {
			t.Fatalf("negative bytes")
		}
	}
}

func TestExprDeMorgan(t *testing.T) {
	rel := buildRelation(t, 1000, 11)
	a := Leaf(Pred{Col: "quantity", Op: core.Le, Val: 20})
	b := Leaf(Pred{Col: "region", Op: core.Eq, Val: 2})
	lhs, _, err := rel.Select(Request{Expr: Not(All(a, b)), Method: BitmapMerge})
	if err != nil {
		t.Fatal(err)
	}
	rhs, _, err := rel.Select(Request{Expr: Any(Not(a), Not(b)), Method: BitmapMerge})
	if err != nil {
		t.Fatal(err)
	}
	if !lhs.Equal(rhs) {
		t.Fatal("De Morgan violated by bitmap expression evaluation")
	}
}

func TestExprEmptyAndString(t *testing.T) {
	rel := buildRelation(t, 100, 12)
	all, _, err := rel.Select(Request{Expr: All(), Method: BitmapMerge})
	if err != nil {
		t.Fatal(err)
	}
	if all.Count() != 100 {
		t.Fatalf("empty conjunction matched %d rows, want all", all.Count())
	}
	none, _, err := rel.Select(Request{Expr: Any(), Method: BitmapMerge})
	if err != nil {
		t.Fatal(err)
	}
	if none.Count() != 0 {
		t.Fatalf("empty disjunction matched %d rows, want none", none.Count())
	}
	if All().String() != "TRUE" || Any().String() != "FALSE" {
		t.Fatal("empty expression strings wrong")
	}
	e := Not(Any(Leaf(Pred{Col: "quantity", Op: core.Le, Val: 5}), Leaf(Pred{Col: "region", Op: core.Eq, Val: 1})))
	want := "NOT (quantity <= 5 OR region = 1)"
	if e.String() != want {
		t.Fatalf("String = %q, want %q", e.String(), want)
	}
}

func TestExprErrors(t *testing.T) {
	rel := NewRelation("r")
	if _, err := rel.AddInt64("a", []int64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	e := Leaf(Pred{Col: "a", Op: core.Eq, Val: 1})
	if _, _, err := rel.Select(Request{Expr: e, Method: BitmapMerge}); err == nil {
		t.Error("missing bitmap index must fail")
	}
	if _, _, err := rel.Select(Request{Expr: e, Method: RIDMerge}); err == nil {
		t.Error("RIDMerge on expressions must fail")
	}
	bad := Leaf(Pred{Col: "zzz", Op: core.Eq, Val: 1})
	if _, _, err := rel.Select(Request{Expr: bad, Method: BitmapMerge}); err == nil {
		t.Error("unknown column must fail")
	}
	if _, _, err := rel.Select(Request{Expr: All(bad), Method: BitmapMerge}); err == nil {
		t.Error("error must propagate through conjunction")
	}
	if _, _, err := rel.Select(Request{Expr: Not(bad), Method: BitmapMerge}); err == nil {
		t.Error("error must propagate through negation")
	}
	if _, _, err := rel.Select(Request{Expr: bad, Method: BitmapMerge, Count: true}); err == nil {
		t.Error("count mode must propagate errors")
	}
	if _, _, err := rel.Select(Request{Expr: e, Method: Auto}); err == nil {
		t.Error("Auto on expressions must fail")
	}
	if _, _, err := rel.Select(Request{Preds: []Pred{{Col: "a", Op: core.Eq, Val: 1}}, Expr: e, Method: FullScan}); err == nil {
		t.Error("a request with both predicates and an expression must fail")
	}
}

func TestCountExpr(t *testing.T) {
	rel := buildRelation(t, 3000, 13)
	e := Any(
		Leaf(Pred{Col: "quantity", Op: core.Le, Val: 10}),
		Leaf(Pred{Col: "quantity", Op: core.Gt, Val: 45}),
	)
	want, _, err := rel.Select(Request{Expr: e, Method: FullScan})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Method{FullScan, BitmapMerge} {
		res, c, err := rel.Select(Request{Expr: e, Method: m, Count: true})
		if err != nil {
			t.Fatal(err)
		}
		if res != nil {
			t.Fatalf("%v: count mode returned a result vector", m)
		}
		if c.Rows != want.Count() {
			t.Fatalf("%v: count %d, want %d", m, c.Rows, want.Count())
		}
	}
}

// TestExprStatsMatchConjunction: an expression runs through the same
// bitmap-merge plan as a predicate conjunction, so All(Leaf...) reports
// the conjunction's Stats and bytes, bumps the plan counter and lands one
// plan-level flight record.
func TestExprStatsMatchConjunction(t *testing.T) {
	rel := buildRelation(t, 2500, 9)
	preds := []Pred{
		{Col: "quantity", Op: core.Le, Val: 15},
		{Col: "price", Op: core.Ge, Val: 2000},
	}
	_, want, err := rel.Select(Request{Preds: preds, Method: BitmapMerge})
	if err != nil {
		t.Fatal(err)
	}
	tr := telemetry.NewTrace("expr stats")
	beforePlans := plansCount(BitmapMerge.String())
	_, got, err := rel.Select(Request{Expr: All(Leaf(preds[0]), Leaf(preds[1])), Method: BitmapMerge, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats != want.Stats || got.BytesRead != want.BytesRead || got.Rows != want.Rows {
		t.Fatalf("expression cost stats=%+v bytes=%d rows=%d, conjunction stats=%+v bytes=%d rows=%d",
			got.Stats, got.BytesRead, got.Rows, want.Stats, want.BytesRead, want.Rows)
	}
	if got.Stats.Scans == 0 || got.Stats.Ands == 0 {
		t.Fatalf("expression reported no bitmap work: %+v", got.Stats)
	}
	if d := plansCount(BitmapMerge.String()) - beforePlans; d != 1 {
		t.Errorf("bix_engine_plans_total{P3-bitmapmerge} grew by %d, want 1", d)
	}
	plans := 0
	for _, rec := range flight.Default().Snapshot() {
		if rec.TraceID == tr.ID() && rec.Plan == BitmapMerge.String() {
			plans++
		}
	}
	if plans != 1 {
		t.Errorf("expression landed %d plan-level flight records, want 1", plans)
	}
}
