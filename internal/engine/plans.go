package engine

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"bitmapindex/internal/bitvec"
	"bitmapindex/internal/core"
	"bitmapindex/internal/cost"
	"bitmapindex/internal/flight"
	"bitmapindex/internal/telemetry"
	"bitmapindex/internal/workload"
)

// Method selects a query evaluation plan for a conjunctive selection.
type Method uint8

const (
	// FullScan is plan P1: read every record and test all predicates.
	FullScan Method = iota
	// IndexFilter is plan P2: probe one index for the most selective
	// predicate, then fetch the matching records and test the rest.
	IndexFilter
	// RIDMerge is plan P3 with RID-list indexes: probe one RID index per
	// predicate and intersect the sorted RID lists.
	RIDMerge
	// BitmapMerge is plan P3 with bitmap indexes: evaluate one bitmap
	// predicate per index and AND the result bitmaps.
	BitmapMerge
	// Auto picks the plan with the lowest estimated bytes read among the
	// plans whose indexes exist.
	Auto
)

// String names the plan like the paper's introduction.
func (m Method) String() string {
	switch m {
	case FullScan:
		return "P1-fullscan"
	case IndexFilter:
		return "P2-indexfilter"
	case RIDMerge:
		return "P3-ridmerge"
	case BitmapMerge:
		return "P3-bitmapmerge"
	case Auto:
		return "auto"
	default:
		return fmt.Sprintf("Method(%d)", uint8(m))
	}
}

// Cost reports the physical work a plan performed (or, for estimates,
// would perform).
type Cost struct {
	Method    Method
	BytesRead int64
	// Rows is the result cardinality.
	Rows int
	// Stats accumulates the bitmap scan and operation counts of every
	// index evaluation the plan performed (zero for plans that touch no
	// bitmap index), so the paper's cost measures propagate to plan level.
	Stats core.Stats
	// AllocBytes and AllocObjects are the heap allocation deltas measured
	// across the plan's execution (telemetry.ReadAllocs). The counters are
	// process-global, so the attribution is exact under serial evaluation
	// and approximate when other goroutines allocate concurrently; small
	// objects surface only at span-refill granularity, large (>32KB)
	// allocations immediately. Plan selection (Auto's cost estimation) is
	// excluded.
	AllocBytes   int64
	AllocObjects int64
}

// Request is one query against a relation: what to select, with which
// plan, and how to execute it.
type Request struct {
	// Preds is a conjunction of predicates. Expr is a general boolean
	// expression over predicates; exactly one of the two is set. Every
	// plan runs Preds; expressions run only on FullScan and BitmapMerge.
	Preds []Pred
	Expr  Expr
	// Method is the plan; Auto picks the one with the lowest estimated
	// bytes read (conjunctions only).
	Method Method
	// Count asks for the number of qualifying records only: Select then
	// returns a nil result vector and the count in Cost.Rows. The count
	// is pushed into each plan: FullScan, IndexFilter and RIDMerge build
	// no result vector, BitmapMerge fuses the final AND with the popcount
	// (bitvec.AndCount) and, for a single predicate, counts segment by
	// segment (core.Index.Count) without any result vector. Costs report
	// the same bytes and Stats as without Count.
	Count bool

	// Trace, when non-nil, receives per-phase durations (plan selection,
	// bitmap work, row filtering, result popcounts).
	Trace *telemetry.Trace
	// Workers bounds the goroutines each bitmap predicate is evaluated
	// on; > 1 shares its segments with the core worker pool, so a single
	// heavy predicate uses several cores. 0 or 1 is the calling goroutine.
	Workers int
	// SegBits overrides the segment width of bitmap predicates (0 selects
	// the core default).
	SegBits int

	// Workload, when non-nil, receives one event per bitmap predicate
	// evaluated by the bitmap-merge plan: the attribute name, operator
	// class, rank-space constant and measured scan/latency cost. Result
	// cardinalities are counted only when the predicate is the whole
	// counted query; other events carry Matches: -1.
	Workload *workload.Accumulator

	// perPred, when non-nil, receives one predActual per bitmap predicate
	// evaluated by the bitmap-merge plan, in evaluation order: the
	// measured scan delta and wall-clock time of that predicate alone.
	// Filled only by ExplainAnalyze, which compares the entries against
	// the cost model's per-predicate predictions.
	perPred *[]predActual
}

// predActual is one bitmap predicate's measured cost within a plan.
type predActual struct {
	Scans int
	NS    int64
}

// expr returns the request's expression: Expr, or the conjunction of
// Preds.
func (q *Request) expr() Expr {
	if q.Expr != nil {
		return q.Expr
	}
	es := make([]Expr, len(q.Preds))
	for i, p := range q.Preds {
		es[i] = Leaf(p)
	}
	return All(es...)
}

// summary renders the query for flight records and plan reports.
func (q *Request) summary() string {
	if q.Expr != nil {
		return q.Expr.String()
	}
	return predsSummary(q.Preds)
}

// plansTotal pre-registers one execution counter per concrete plan. The
// label values are compile-time constants (and must stay in sync with
// Method.String), keeping the metric's cardinality statically bounded —
// the contract bixlint's telemetry-labels analyzer enforces.
var plansTotal = [...]*telemetry.Counter{
	FullScan:    telemetry.Default().Counter("bix_engine_plans_total", plansHelp, telemetry.Label{Name: "method", Value: "P1-fullscan"}),
	IndexFilter: telemetry.Default().Counter("bix_engine_plans_total", plansHelp, telemetry.Label{Name: "method", Value: "P2-indexfilter"}),
	RIDMerge:    telemetry.Default().Counter("bix_engine_plans_total", plansHelp, telemetry.Label{Name: "method", Value: "P3-ridmerge"}),
	BitmapMerge: telemetry.Default().Counter("bix_engine_plans_total", plansHelp, telemetry.Label{Name: "method", Value: "P3-bitmapmerge"}),
}

const plansHelp = "Query plan executions, by method."

// Select runs the request and returns the qualifying record bitmap (nil
// when req.Count is set) plus the measured cost. All predicates must
// reference existing columns; RIDMerge needs a RID index and BitmapMerge
// a bitmap index on every referenced column. Each executed plan
// increments bix_engine_plans_total{method=...} and lands one plan-level
// flight record.
func (r *Relation) Select(req Request) (*bitvec.Vector, Cost, error) {
	switch {
	case req.Expr != nil && len(req.Preds) > 0:
		return nil, Cost{}, fmt.Errorf("engine: request carries both predicates and an expression")
	case req.Expr == nil && len(req.Preds) == 0:
		return nil, Cost{}, fmt.Errorf("engine: empty predicate list")
	case req.Expr != nil && req.Method != FullScan && req.Method != BitmapMerge:
		return nil, Cost{}, fmt.Errorf("engine: method %v cannot evaluate general expressions", req.Method)
	}
	e := req.expr()
	if err := r.checkPreds(appendLeaves(nil, e)); err != nil {
		return nil, Cost{}, err
	}
	if req.Method == Auto {
		best, err := r.pickPlan(req.Preds, req.Trace)
		if err != nil {
			return nil, Cost{}, err
		}
		req.Method = best
	}
	var (
		res *bitvec.Vector
		c   Cost
		err error
	)
	aB, aO := telemetry.ReadAllocs()
	t0 := time.Now()
	switch req.Method {
	case FullScan:
		res, c, err = r.fullScan(e, &req)
	case IndexFilter:
		res, c, err = r.indexFilter(&req)
	case RIDMerge:
		res, c, err = r.ridMerge(&req)
	case BitmapMerge:
		res, c, err = r.bitmapMerge(e, &req)
	default:
		err = fmt.Errorf("engine: unknown method %v", req.Method)
	}
	if err != nil {
		return nil, Cost{}, err
	}
	b, o := telemetry.ReadAllocs()
	c.AllocBytes, c.AllocObjects = b-aB, o-aO
	plansTotal[c.Method].Inc()
	recordPlanFlight(req.summary(), &c, time.Since(t0), req.Trace)
	return res, c, nil
}

// recordPlanFlight lands one plan-level flight record for an executed
// plan. Core evaluations beneath a bitmap plan land their own records
// under the same trace ID, so /debug/queries readers can join a plan to
// its per-index evaluations.
func recordPlanFlight(query string, c *Cost, elapsed time.Duration, tr *telemetry.Trace) {
	frec := flight.Record{
		TraceID: tr.ID(), Query: query, Plan: c.Method.String(),
		Total: elapsed, Rows: int64(c.Rows), BytesRead: c.BytesRead,
		Scans: c.Stats.Scans, Ands: c.Stats.Ands, Ors: c.Stats.Ors,
		Xors: c.Stats.Xors, Nots: c.Stats.Nots,
		AllocBytes: c.AllocBytes, AllocObjects: c.AllocObjects,
	}
	flight.Default().Add(&frec, tr)
}

// predsSummary renders the conjunction compactly ("A <= 7 AND B = 2").
func predsSummary(preds []Pred) string {
	if len(preds) == 1 {
		return preds[0].String()
	}
	parts := make([]string, len(preds))
	for i, p := range preds {
		parts[i] = p.String()
	}
	return strings.Join(parts, " AND ")
}

func (r *Relation) checkPreds(preds []Pred) error {
	for _, p := range preds {
		if _, err := r.Column(p.Col); err != nil {
			return err
		}
	}
	return nil
}

// rowSink collects qualifying rows: into a result bitmap, or in count
// mode (out nil) only their number.
type rowSink struct {
	out *bitvec.Vector
	n   int
}

func (r *Relation) newSink(count bool) rowSink {
	if count {
		return rowSink{}
	}
	return rowSink{out: bitvec.New(r.Rows())}
}

func (s *rowSink) add(row int) {
	if s.out != nil {
		s.out.Set(row)
	}
	s.n++
}

// fullScan is plan P1: test every row against the expression.
func (r *Relation) fullScan(e Expr, req *Request) (*bitvec.Vector, Cost, error) {
	test, err := e.rowTest(r)
	if err != nil {
		return nil, Cost{}, err
	}
	sp := req.Trace.Start(telemetry.PhaseFilter)
	s := r.newSink(req.Count)
	for row := 0; row < r.Rows(); row++ {
		if test(row) {
			s.add(row)
		}
	}
	sp.End()
	return s.out, Cost{Method: FullScan, BytesRead: int64(r.Rows()) * int64(r.RowBytes()), Rows: s.n}, nil
}

// popcount counts the result bits under the popcount trace phase.
func popcount(v *bitvec.Vector, tr *telemetry.Trace) int {
	defer tr.Start(telemetry.PhasePopcount).End()
	return v.Count()
}

// ridsFor returns the RIDs matching the predicate via the column's RID
// index, along with the index bytes read (RIDBytes per RID touched, over
// every list probed).
func (r *Relation) ridsFor(p Pred) ([]uint32, int64, error) {
	c, _ := r.Column(p.Col)
	if c.rids == nil {
		return nil, 0, fmt.Errorf("engine: column %q has no RID index", p.Col)
	}
	rop, rank, all, none := c.dict.Translate(p.Op, p.Val)
	if none {
		return nil, 0, nil
	}
	var out []uint32
	var bytes int64
	for v := uint64(0); v < c.Card(); v++ {
		if !all && !rop.Matches(v, rank) {
			continue
		}
		list := c.rids[v]
		bytes += int64(len(list)) * RIDBytes
		out = append(out, list...)
	}
	slices.Sort(out)
	return out, bytes, nil
}

// indexFilter is plan P2: probe the RID index of the most selective
// indexed predicate (smallest RID list), then fetch the candidate records
// and test the rest.
func (r *Relation) indexFilter(req *Request) (*bitvec.Vector, Cost, error) {
	preds := req.Preds
	probe := req.Trace.Start(telemetry.PhaseFetch)
	driver := -1
	var driverRIDs []uint32
	var driverBytes int64
	for i, p := range preds {
		c, _ := r.Column(p.Col)
		if c.rids == nil {
			continue
		}
		rids, bytes, err := r.ridsFor(p)
		if err != nil {
			probe.End()
			return nil, Cost{}, err
		}
		if driver < 0 || len(rids) < len(driverRIDs) {
			driver, driverRIDs, driverBytes = i, rids, bytes
		}
	}
	probe.End()
	if driver < 0 {
		return nil, Cost{}, fmt.Errorf("engine: no RID index available for index-filter plan")
	}
	sp := req.Trace.Start(telemetry.PhaseFilter)
	rest := make([]Expr, 0, len(preds)-1)
	for i, p := range preds {
		if i != driver {
			rest = append(rest, Leaf(p))
		}
	}
	test, err := All(rest...).rowTest(r)
	if err != nil {
		sp.End()
		return nil, Cost{}, err
	}
	// Per-value RID lists are disjoint, so the driver list has no
	// duplicates and each candidate is added at most once.
	s := r.newSink(req.Count)
	for _, rid := range driverRIDs {
		if test(int(rid)) {
			s.add(int(rid))
		}
	}
	sp.End()
	cost := Cost{
		Method: IndexFilter,
		// Index probe plus fetching each candidate record.
		BytesRead: driverBytes + int64(len(driverRIDs))*int64(r.RowBytes()),
		Rows:      s.n,
	}
	return s.out, cost, nil
}

// ridMerge is plan P3 over RID lists: intersect one sorted RID list per
// predicate.
func (r *Relation) ridMerge(req *Request) (*bitvec.Vector, Cost, error) {
	var result []uint32
	var bytes int64
	for i, p := range req.Preds {
		probe := req.Trace.Start(telemetry.PhaseFetch)
		rids, b, err := r.ridsFor(p)
		probe.End()
		if err != nil {
			return nil, Cost{}, err
		}
		bytes += b
		if i == 0 {
			result = rids
			continue
		}
		sp := req.Trace.Start(telemetry.PhaseFilter)
		result = intersectSorted(result, rids)
		sp.End()
	}
	s := r.newSink(req.Count)
	for _, rid := range result {
		s.add(int(rid))
	}
	return s.out, Cost{Method: RIDMerge, BytesRead: bytes, Rows: s.n}, nil
}

func intersectSorted(a, b []uint32) []uint32 {
	out := a[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// bitmapMerge is plan P3 over bitmaps: evaluate every predicate through
// its bitmap index and combine the results with AND/OR/NOT.
func (r *Relation) bitmapMerge(e Expr, req *Request) (*bitvec.Vector, Cost, error) {
	x := bitmapRun{r: r, req: req, bitmapBytes: int64((r.Rows() + 7) / 8)}
	out, n, err := e.bitmap(&x, req.Count)
	if err != nil {
		return nil, Cost{}, err
	}
	if !req.Count {
		n = popcount(out, req.Trace)
	}
	return out, Cost{Method: BitmapMerge, BytesRead: x.bytes, Rows: n, Stats: x.st}, nil
}

// bitmapRun is the state of one bitmap-merge execution: the scans and
// operations of every index evaluation plus the plan's own AND/OR/NOT
// (so plan-level Stats cover all bitmap work), and the bitmap bytes read.
type bitmapRun struct {
	r           *Relation
	req         *Request
	bitmapBytes int64
	bytes       int64
	st          core.Stats
}

// result finishes an expression node: in count mode v is popcounted and
// dropped.
func (x *bitmapRun) result(v *bitvec.Vector, count bool) (*bitvec.Vector, int, error) {
	if count {
		return nil, popcount(v, x.req.Trace), nil
	}
	return v, 0, nil
}

// leaf evaluates one predicate through its column's bitmap index on
// req.Workers goroutines. In count mode, where the predicate is the whole
// query, only the qualifying rows are counted, segment by segment and
// without a result vector.
func (x *bitmapRun) leaf(p Pred, count bool) (*bitvec.Vector, int, error) {
	r, req := x.r, x.req
	c, _ := r.Column(p.Col)
	if c.bitmap == nil {
		return nil, 0, fmt.Errorf("engine: column %q has no bitmap index", p.Col)
	}
	rop, rank, all, none := c.dict.Translate(p.Op, p.Val)
	t0 := time.Now()
	scans0 := x.st.Scans
	eo := &core.EvalOptions{SegConfig: core.SegConfig{SegBits: req.SegBits, Workers: req.Workers},
		Stats: &x.st, Trace: req.Trace}
	cls := workload.ClassOf(rop)
	var res *bitvec.Vector
	var n int
	switch {
	case none || all:
		cls = workload.ClassOf(p.Op)
		switch {
		case count && all:
			n = r.Rows()
		case count:
			n = 0
		case all:
			res = bitvec.NewOnes(r.Rows())
		default:
			res = bitvec.New(r.Rows())
		}
	case count:
		n = c.bitmap.Count(rop, rank, eo)
	default:
		res = c.bitmap.Eval(rop, rank, eo)
	}
	scans := x.st.Scans - scans0
	x.bytes += int64(scans) * x.bitmapBytes
	ns := time.Since(t0).Nanoseconds()
	if req.perPred != nil {
		*req.perPred = append(*req.perPred, predActual{Scans: scans, NS: ns})
	}
	if req.Workload != nil {
		ev := workload.Event{Attr: p.Col, Class: cls, Value: rank, Matches: -1, Scans: scans, NS: ns}
		if count {
			ev.Matches, ev.Rows = n, r.Rows()
		}
		req.Workload.Observe(ev)
	}
	return res, n, nil
}

// EstimateBytes predicts the bytes a plan would read, using exact index
// statistics (RID-list lengths) and the analytic bitmap scan model. It
// returns an error when the plan's required indexes are missing.
func (r *Relation) EstimateBytes(preds []Pred, m Method) (int64, error) {
	switch m {
	case FullScan:
		return int64(r.Rows()) * int64(r.RowBytes()), nil
	case IndexFilter:
		best := int64(math.MaxInt64)
		found := false
		for _, p := range preds {
			c, _ := r.Column(p.Col)
			if c.rids == nil {
				continue
			}
			n, idxBytes := r.ridStats(c, p)
			found = true
			if e := idxBytes + n*int64(r.RowBytes()); e < best {
				best = e
			}
		}
		if !found {
			return 0, fmt.Errorf("engine: no RID index for index-filter estimate")
		}
		return best, nil
	case RIDMerge:
		var total int64
		for _, p := range preds {
			c, _ := r.Column(p.Col)
			if c.rids == nil {
				return 0, fmt.Errorf("engine: column %q has no RID index", p.Col)
			}
			_, idxBytes := r.ridStats(c, p)
			total += idxBytes
		}
		return total, nil
	case BitmapMerge:
		bitmapBytes := int64((r.Rows() + 7) / 8)
		var total int64
		for _, p := range preds {
			c, _ := r.Column(p.Col)
			if c.bitmap == nil {
				return 0, fmt.Errorf("engine: column %q has no bitmap index", p.Col)
			}
			rop, rank, all, none := c.dict.Translate(p.Op, p.Val)
			if all || none {
				continue
			}
			scans := cost.ScansFor(c.bitmap.Base(), c.bitmap.Encoding(), c.Card(), rop, rank)
			total += int64(scans) * bitmapBytes
		}
		return total, nil
	}
	return 0, fmt.Errorf("engine: cannot estimate method %v", m)
}

// planEstimate is one concrete plan's estimated bytes, or why it cannot
// run.
type planEstimate struct {
	method Method
	bytes  int64
	err    error
}

// estimatePlans estimates every concrete plan and returns the cheapest
// executable one; ok is false when no plan can run.
func (r *Relation) estimatePlans(preds []Pred) (ests []planEstimate, best Method, ok bool) {
	bestBytes := int64(math.MaxInt64)
	for _, m := range []Method{FullScan, IndexFilter, RIDMerge, BitmapMerge} {
		e, err := r.EstimateBytes(preds, m)
		ests = append(ests, planEstimate{method: m, bytes: e, err: err})
		if err == nil && e < bestBytes {
			best, bestBytes, ok = m, e, true
		}
	}
	return ests, best, ok
}

// pickPlan returns the method with the lowest estimated bytes read among
// the plans whose indexes exist; the estimation pass is traced as the plan
// phase.
func (r *Relation) pickPlan(preds []Pred, tr *telemetry.Trace) (Method, error) {
	sp := tr.Start(telemetry.PhasePlan)
	_, best, ok := r.estimatePlans(preds)
	sp.End()
	if !ok {
		return 0, fmt.Errorf("engine: no executable plan")
	}
	return best, nil
}

// ridStats returns the matching-row count and index bytes for a predicate
// from the RID index without materializing the lists.
func (r *Relation) ridStats(c *Column, p Pred) (nRows, idxBytes int64) {
	rop, rank, all, none := c.dict.Translate(p.Op, p.Val)
	if none {
		return 0, 0
	}
	for v := uint64(0); v < c.Card(); v++ {
		if all || rop.Matches(v, rank) {
			n := int64(len(c.rids[v]))
			nRows += n
			idxBytes += n * RIDBytes
		}
	}
	return nRows, idxBytes
}

// Explain renders the optimizer's view of a conjunctive selection: the
// estimated bytes for every applicable plan and which one Auto would run.
func (r *Relation) Explain(preds []Pred) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "select %v from %s (%d rows)\n", preds, r.Name, r.Rows())
	ests, best, ok := r.estimatePlans(preds)
	for _, e := range ests {
		if e.err != nil {
			fmt.Fprintf(&sb, "  %-16s unavailable: %v\n", e.method, e.err)
			continue
		}
		fmt.Fprintf(&sb, "  %-16s ~%d bytes\n", e.method, e.bytes)
	}
	if ok {
		fmt.Fprintf(&sb, "  -> auto picks %v\n", best)
	} else {
		sb.WriteString("  -> no executable plan\n")
	}
	return sb.String()
}
