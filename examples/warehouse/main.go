// Warehouse: the DSS scenario from the paper's introduction. A TPC-D-style
// lineitem relation answers a high-selectivity multi-predicate ad-hoc
// query; we compare the three query plans an optimizer would consider —
// P1 full scan, P2 index-filter, P3 index merge with RID lists and with
// bitmap indexes — and let the byte-cost-based picker choose.
//
// The engine package is the reproduction's internal column-store
// substrate; this example shows how the public bitmap index slots into a
// query processor.
package main

import (
	"fmt"
	"log"

	"bitmapindex"
	"bitmapindex/internal/data"
	"bitmapindex/internal/engine"
)

func main() {
	const rows = 200000
	// lineitem(quantity, discount, shipmode): quantity uniform 1..50,
	// discount 0..10 percent, shipmode one of 7.
	quantity := make([]int64, rows)
	for i, v := range data.LineitemQuantity(rows, 1).Values {
		quantity[i] = int64(v) + 1
	}
	discount := make([]int64, rows)
	for i, v := range data.Uniform(rows, 11, 2).Values {
		discount[i] = int64(v)
	}
	shipmode := make([]int64, rows)
	for i, v := range data.Zipf(rows, 7, 1.2, 3).Values {
		shipmode[i] = int64(v)
	}

	rel := engine.NewRelation("lineitem")
	for _, col := range []struct {
		name string
		vals []int64
	}{{"quantity", quantity}, {"discount", discount}, {"shipmode", shipmode}} {
		c, err := rel.AddInt64(col.name, col.vals)
		if err != nil {
			log.Fatal(err)
		}
		c.BuildRIDIndex()
		// Index each attribute at its knee design.
		knee, err := bitmapindex.KneeBase(c.Card())
		if err != nil {
			log.Fatal(err)
		}
		if err := c.BuildBitmapIndex(knee, bitmapindex.RangeEncoded); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("indexed %-9s %s\n", col.name,
			bitmapindex.Describe(knee, bitmapindex.RangeEncoded, c.Card()))
	}

	// "Find large discounted shipments": a conjunctive ad-hoc query with
	// high selectivity factor, the paper's DSS motivating case.
	query := []engine.Pred{
		{Col: "quantity", Op: bitmapindex.Ge, Val: 20},
		{Col: "discount", Op: bitmapindex.Ge, Val: 3},
		{Col: "shipmode", Op: bitmapindex.Ne, Val: 0},
	}
	fmt.Printf("\nquery: %v AND %v AND %v\n\n", query[0], query[1], query[2])

	var reference int
	for _, m := range []engine.Method{
		engine.FullScan, engine.IndexFilter, engine.RIDMerge, engine.BitmapMerge,
	} {
		res, cost, err := rel.Select(engine.Request{Preds: query, Method: m})
		if err != nil {
			log.Fatal(err)
		}
		if reference == 0 {
			reference = res.Count()
		} else if res.Count() != reference {
			log.Fatalf("plan %v disagrees: %d vs %d rows", m, res.Count(), reference)
		}
		fmt.Printf("%-16s %9d bytes read   %d rows\n", m, cost.BytesRead, cost.Rows)
	}

	_, cost, err := rel.Select(engine.Request{Preds: query, Method: engine.Auto})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\noptimizer picked %v (%d bytes); result selectivity %.1f%% — well past the 1/32 crossover where bitmaps beat RID lists\n",
		cost.Method, cost.BytesRead, 100*float64(cost.Rows)/float64(rows))

	// Arbitrary boolean expressions compose predicate bitmaps with the
	// AND/OR/NOT operations that motivate bitmap indexes in the first
	// place.
	expr := engine.All(
		engine.Any(
			engine.Leaf(engine.Pred{Col: "quantity", Op: bitmapindex.Le, Val: 5}),
			engine.Leaf(engine.Pred{Col: "quantity", Op: bitmapindex.Ge, Val: 45}),
		),
		engine.Not(engine.Leaf(engine.Pred{Col: "shipmode", Op: bitmapindex.Eq, Val: 6})),
	)
	res, exprCost, err := rel.Select(engine.Request{Expr: expr, Method: engine.BitmapMerge})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nexpression %s\n  -> %d rows via bitmap algebra, %d bytes\n", expr, res.Count(), exprCost.BytesRead)

	// Aggregation without touching a single record: SUM over the result
	// bitmap, computed from bitmap population counts alone (the
	// Bit-Sliced / Sybase IQ technique the paper cites).
	qcol, err := rel.Column("discount")
	if err != nil {
		log.Fatal(err)
	}
	sum, n, err := qcol.BitmapIndex().SumSelected(res)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SUM(discount) over those rows: %d across %d rows (avg %.2f%%), via bitmap counts only\n",
		sum, n, float64(sum)/float64(n))
}
