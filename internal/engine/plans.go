package engine

import (
	"fmt"
	"math"
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

// Select evaluates the conjunction of preds over the relation with the
// given plan and returns the qualifying record bitmap plus the measured
// cost. All predicates must reference existing columns; RIDMerge needs a
// RID index and BitmapMerge a bitmap index on every referenced column.
func (r *Relation) Select(preds []Pred, m Method) (*bitvec.Vector, Cost, error) {
	return r.SelectTraced(preds, m, nil)
}

// SelectOptions tunes plan execution beyond the method choice.
type SelectOptions struct {
	// Trace, when non-nil, receives per-phase durations (plan selection,
	// bitmap work, row filtering, result popcounts).
	Trace *telemetry.Trace
	// Parallel evaluates bitmap predicates with the segmented intra-query
	// evaluator (core.SegmentedEval) instead of the serial one, so a
	// single heavy predicate uses every core. Engine-level batches over
	// many predicates should instead parallelize across predicates; see
	// core.EvalBatch for the crossover heuristic.
	Parallel bool
	// Workers bounds segment workers when Parallel is set (0 selects
	// GOMAXPROCS).
	Workers int
	// SegBits overrides the segment width when Parallel is set (0 selects
	// the core default).
	SegBits int

	// Workload, when non-nil, receives one event per bitmap predicate
	// evaluated by the bitmap-merge plans: the attribute name, operator
	// class, rank-space constant and measured scan/latency cost. Result
	// cardinalities are not counted per predicate (the plans fuse the
	// final AND with the popcount), so events carry Matches: -1.
	Workload *workload.Accumulator

	// perPred, when non-nil, receives one predActual per bitmap predicate
	// evaluated by the bitmap-merge plans, in predicate order: the measured
	// scan delta and wall-clock time of that predicate alone. Filled only
	// by ExplainAnalyze, which compares the entries against the cost
	// model's per-predicate predictions.
	perPred *[]predActual
}

// predActual is one bitmap predicate's measured cost within a plan.
type predActual struct {
	Scans int
	NS    int64
}

func (o *SelectOptions) segConfig() core.SegConfig {
	return core.SegConfig{SegBits: o.SegBits, Workers: o.Workers}
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

// SelectTraced is Select with per-query tracing: plan selection, bitmap
// work, row filtering and result popcounts are recorded into tr (which may
// be nil). Each executed plan also increments the registry's
// bix_engine_plans_total{method=...} counter.
func (r *Relation) SelectTraced(preds []Pred, m Method, tr *telemetry.Trace) (*bitvec.Vector, Cost, error) {
	return r.SelectOpts(preds, m, &SelectOptions{Trace: tr})
}

// SelectOpts is Select with full execution options (tracing plus
// segmented intra-query parallelism for the bitmap plan). opt may be nil.
func (r *Relation) SelectOpts(preds []Pred, m Method, opt *SelectOptions) (*bitvec.Vector, Cost, error) {
	if opt == nil {
		opt = &SelectOptions{}
	}
	if err := r.checkPreds(preds); err != nil {
		return nil, Cost{}, err
	}
	tr := opt.Trace
	var (
		res *bitvec.Vector
		c   Cost
		err error
	)
	aB, aO := telemetry.ReadAllocs()
	t0 := time.Now()
	switch m {
	case FullScan:
		res, c, err = r.fullScan(preds, tr)
	case IndexFilter:
		res, c, err = r.indexFilter(preds, tr)
	case RIDMerge:
		res, c, err = r.ridMerge(preds, tr)
	case BitmapMerge:
		res, c, err = r.bitmapMerge(preds, opt)
	case Auto:
		return r.auto(preds, opt) // the recursive call accounts and records
	default:
		return nil, Cost{}, fmt.Errorf("engine: unknown method %v", m)
	}
	if err == nil {
		b, o := telemetry.ReadAllocs()
		c.AllocBytes, c.AllocObjects = b-aB, o-aO
		if int(c.Method) < len(plansTotal) {
			plansTotal[c.Method].Inc()
		}
		recordPlanFlight(preds, &c, time.Since(t0), tr)
	}
	return res, c, err
}

// recordPlanFlight lands one plan-level flight record for an executed
// plan. Core evaluations beneath a bitmap plan land their own records
// under the same trace ID, so /debug/queries readers can join a plan to
// its per-index evaluations.
func recordPlanFlight(preds []Pred, c *Cost, elapsed time.Duration, tr *telemetry.Trace) {
	frec := flight.Record{
		TraceID: tr.ID(), Query: predsSummary(preds), Plan: c.Method.String(),
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
	if len(preds) == 0 {
		return fmt.Errorf("engine: empty predicate list")
	}
	for _, p := range preds {
		if _, err := r.Column(p.Col); err != nil {
			return err
		}
	}
	return nil
}

func (r *Relation) fullScan(preds []Pred, tr *telemetry.Trace) (*bitvec.Vector, Cost, error) {
	sp := tr.Start(telemetry.PhaseFilter)
	out := bitvec.New(r.Rows())
	cols := make([]*Column, len(preds))
	for i, p := range preds {
		cols[i], _ = r.Column(p.Col)
	}
	for row := 0; row < r.Rows(); row++ {
		ok := true
		for i, p := range preds {
			if !p.matches(cols[i], row) {
				ok = false
				break
			}
		}
		if ok {
			out.Set(row)
		}
	}
	sp.End()
	cost := Cost{Method: FullScan, BytesRead: int64(r.Rows()) * int64(r.RowBytes()), Rows: popcount(out, tr)}
	return out, cost, nil
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
	rop, rank, all, none, err := translateChecked(c, p)
	if err != nil {
		return nil, 0, err
	}
	if none {
		return nil, 0, nil
	}
	match := func(v uint64) bool {
		if all {
			return true
		}
		return rop.Matches(v, rank)
	}
	var out []uint32
	var bytes int64
	for v := uint64(0); v < c.Card(); v++ {
		if !match(v) {
			continue
		}
		list := c.rids[v]
		bytes += int64(len(list)) * RIDBytes
		out = append(out, list...)
	}
	sortRIDs(out)
	return out, bytes, nil
}

func translateChecked(c *Column, p Pred) (rop core.Op, rank uint64, all, none bool, err error) {
	rop, rank, all, none = c.dict.Translate(p.Op, p.Val)
	return rop, rank, all, none, nil
}

func sortRIDs(r []uint32) {
	// RID lists are concatenations of already-sorted per-value lists;
	// a simple merge via sort is adequate at this scale.
	if len(r) < 2 {
		return
	}
	quickSortRIDs(r)
}

func quickSortRIDs(r []uint32) {
	if len(r) < 16 {
		for i := 1; i < len(r); i++ {
			for j := i; j > 0 && r[j] < r[j-1]; j-- {
				r[j], r[j-1] = r[j-1], r[j]
			}
		}
		return
	}
	pivot := r[len(r)/2]
	lo, hi := 0, len(r)-1
	for lo <= hi {
		for r[lo] < pivot {
			lo++
		}
		for r[hi] > pivot {
			hi--
		}
		if lo <= hi {
			r[lo], r[hi] = r[hi], r[lo]
			lo++
			hi--
		}
	}
	quickSortRIDs(r[:hi+1])
	quickSortRIDs(r[lo:])
}

func (r *Relation) indexFilter(preds []Pred, tr *telemetry.Trace) (*bitvec.Vector, Cost, error) {
	// Choose the most selective indexed predicate (smallest RID list) as
	// the driver; fall back to the first RID-indexed column.
	probe := tr.Start(telemetry.PhaseFetch)
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
	sp := tr.Start(telemetry.PhaseFilter)
	out := bitvec.New(r.Rows())
	cols := make([]*Column, len(preds))
	for i, p := range preds {
		cols[i], _ = r.Column(p.Col)
	}
	for _, rid := range driverRIDs {
		ok := true
		for i, p := range preds {
			if i == driver {
				continue
			}
			if !p.matches(cols[i], int(rid)) {
				ok = false
				break
			}
		}
		if ok {
			out.Set(int(rid))
		}
	}
	sp.End()
	cost := Cost{
		Method: IndexFilter,
		// Index probe plus fetching each candidate record.
		BytesRead: driverBytes + int64(len(driverRIDs))*int64(r.RowBytes()),
		Rows:      popcount(out, tr),
	}
	return out, cost, nil
}

func (r *Relation) ridMerge(preds []Pred, tr *telemetry.Trace) (*bitvec.Vector, Cost, error) {
	var result []uint32
	var bytes int64
	for i, p := range preds {
		probe := tr.Start(telemetry.PhaseFetch)
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
		sp := tr.Start(telemetry.PhaseFilter)
		result = intersectSorted(result, rids)
		sp.End()
	}
	out := bitvec.New(r.Rows())
	for _, rid := range result {
		out.Set(int(rid))
	}
	return out, Cost{Method: RIDMerge, BytesRead: bytes, Rows: len(result)}, nil
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

// evalBitmapPred evaluates one predicate through the column's bitmap
// index, honoring opt.Parallel (segmented evaluation) and accounting
// stats into st.
func (r *Relation) evalBitmapPred(p Pred, opt *SelectOptions, st *core.Stats) (*bitvec.Vector, error) {
	c, _ := r.Column(p.Col)
	if c.bitmap == nil {
		return nil, fmt.Errorf("engine: column %q has no bitmap index", p.Col)
	}
	rop, rank, all, none, err := translateChecked(c, p)
	if err != nil {
		return nil, err
	}
	var t0 time.Time
	scans0 := st.Scans
	if opt.Workload != nil {
		t0 = time.Now()
	}
	var res *bitvec.Vector
	cls := workload.ClassOf(p.Op)
	switch {
	case none:
		res = bitvec.New(r.Rows())
	case all:
		res = bitvec.NewOnes(r.Rows())
	case opt.Parallel:
		cls = workload.ClassOf(rop)
		res = c.bitmap.SegmentedEval(rop, rank, &core.EvalOptions{Stats: st, Trace: opt.Trace}, opt.segConfig())
	default:
		cls = workload.ClassOf(rop)
		res = c.bitmap.Eval(rop, rank, &core.EvalOptions{Stats: st, Trace: opt.Trace})
	}
	if opt.Workload != nil {
		opt.Workload.Observe(workload.Event{
			Attr:    p.Col,
			Class:   cls,
			Value:   rank,
			Matches: -1,
			Scans:   st.Scans - scans0,
			NS:      time.Since(t0).Nanoseconds(),
		})
	}
	return res, nil
}

func (r *Relation) bitmapMerge(preds []Pred, opt *SelectOptions) (*bitvec.Vector, Cost, error) {
	tr := opt.Trace
	bitmapBytes := int64((r.Rows() + 7) / 8)
	var out *bitvec.Vector
	var bytes int64
	var st core.Stats
	for _, p := range preds {
		before := st
		var t0 time.Time
		if opt.perPred != nil {
			t0 = time.Now()
		}
		res, err := r.evalBitmapPred(p, opt, &st)
		if err != nil {
			return nil, Cost{}, err
		}
		if opt.perPred != nil {
			*opt.perPred = append(*opt.perPred,
				predActual{Scans: st.Scans - before.Scans, NS: time.Since(t0).Nanoseconds()})
		}
		bytes += int64(st.Scans-before.Scans) * bitmapBytes
		if out == nil {
			out = res
		} else {
			// The cross-predicate AND is a bitmap operation too; count it
			// so plan-level Stats cover all CPU work, not just the
			// per-index evaluations.
			sp := tr.Start(telemetry.PhaseBoolOps)
			out.And(res)
			sp.End()
			st.Ands++
		}
	}
	return out, Cost{Method: BitmapMerge, BytesRead: bytes, Rows: popcount(out, tr), Stats: st}, nil
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

// auto runs the cheapest estimable plan; the estimation pass is traced as
// the plan phase.
func (r *Relation) auto(preds []Pred, opt *SelectOptions) (*bitvec.Vector, Cost, error) {
	best, err := r.pickPlan(preds, opt.Trace)
	if err != nil {
		return nil, Cost{}, err
	}
	return r.SelectOpts(preds, best, opt)
}

// pickPlan returns the method with the lowest estimated bytes read among
// the plans whose indexes exist; the estimation pass is traced as the plan
// phase.
func (r *Relation) pickPlan(preds []Pred, tr *telemetry.Trace) (Method, error) {
	sp := tr.Start(telemetry.PhasePlan)
	best := Method(0)
	bestBytes := int64(math.MaxInt64)
	found := false
	for _, m := range []Method{FullScan, IndexFilter, RIDMerge, BitmapMerge} {
		e, err := r.EstimateBytes(preds, m)
		if err != nil {
			continue
		}
		if e < bestBytes {
			best, bestBytes, found = m, e, true
		}
	}
	sp.End()
	if !found {
		return 0, fmt.Errorf("engine: no executable plan")
	}
	return best, nil
}

// SelectCount evaluates the conjunction like SelectOpts but returns only
// the number of qualifying records, pushing the count into each plan:
// FullScan and IndexFilter count matches without building a result bitmap,
// RIDMerge counts the intersected list, and BitmapMerge fuses the final
// AND with the popcount (bitvec.AndCount) — with a single predicate and
// opt.Parallel set it counts segment-by-segment (core.SegmentedCount)
// without materializing any result vector at all. Costs report the same
// bytes as the materializing plans; Cost.Rows is the count. opt may be
// nil.
func (r *Relation) SelectCount(preds []Pred, m Method, opt *SelectOptions) (int, Cost, error) {
	if opt == nil {
		opt = &SelectOptions{}
	}
	if err := r.checkPreds(preds); err != nil {
		return 0, Cost{}, err
	}
	tr := opt.Trace
	var (
		n   int
		c   Cost
		err error
	)
	aB, aO := telemetry.ReadAllocs()
	t0 := time.Now()
	switch m {
	case FullScan:
		n, c, err = r.countFullScan(preds, tr)
	case IndexFilter:
		n, c, err = r.countIndexFilter(preds, tr)
	case RIDMerge:
		n, c, err = r.countRIDMerge(preds, tr)
	case BitmapMerge:
		n, c, err = r.countBitmapMerge(preds, opt)
	case Auto:
		best, perr := r.pickPlan(preds, tr)
		if perr != nil {
			return 0, Cost{}, perr
		}
		return r.SelectCount(preds, best, opt) // the recursive call accounts and records
	default:
		return 0, Cost{}, fmt.Errorf("engine: unknown method %v", m)
	}
	if err == nil {
		b, o := telemetry.ReadAllocs()
		c.AllocBytes, c.AllocObjects = b-aB, o-aO
		if int(c.Method) < len(plansTotal) {
			plansTotal[c.Method].Inc()
		}
		recordPlanFlight(preds, &c, time.Since(t0), tr)
	}
	return n, c, err
}

func (r *Relation) countFullScan(preds []Pred, tr *telemetry.Trace) (int, Cost, error) {
	sp := tr.Start(telemetry.PhaseFilter)
	cols := make([]*Column, len(preds))
	for i, p := range preds {
		cols[i], _ = r.Column(p.Col)
	}
	n := 0
	for row := 0; row < r.Rows(); row++ {
		ok := true
		for i, p := range preds {
			if !p.matches(cols[i], row) {
				ok = false
				break
			}
		}
		if ok {
			n++
		}
	}
	sp.End()
	return n, Cost{Method: FullScan, BytesRead: int64(r.Rows()) * int64(r.RowBytes()), Rows: n}, nil
}

func (r *Relation) countIndexFilter(preds []Pred, tr *telemetry.Trace) (int, Cost, error) {
	probe := tr.Start(telemetry.PhaseFetch)
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
			return 0, Cost{}, err
		}
		if driver < 0 || len(rids) < len(driverRIDs) {
			driver, driverRIDs, driverBytes = i, rids, bytes
		}
	}
	probe.End()
	if driver < 0 {
		return 0, Cost{}, fmt.Errorf("engine: no RID index available for index-filter plan")
	}
	sp := tr.Start(telemetry.PhaseFilter)
	cols := make([]*Column, len(preds))
	for i, p := range preds {
		cols[i], _ = r.Column(p.Col)
	}
	// Per-value RID lists are disjoint, so the driver list has no
	// duplicates and counting candidates equals counting result bits.
	n := 0
	for _, rid := range driverRIDs {
		ok := true
		for i, p := range preds {
			if i == driver {
				continue
			}
			if !p.matches(cols[i], int(rid)) {
				ok = false
				break
			}
		}
		if ok {
			n++
		}
	}
	sp.End()
	cost := Cost{
		Method:    IndexFilter,
		BytesRead: driverBytes + int64(len(driverRIDs))*int64(r.RowBytes()),
		Rows:      n,
	}
	return n, cost, nil
}

func (r *Relation) countRIDMerge(preds []Pred, tr *telemetry.Trace) (int, Cost, error) {
	var result []uint32
	var bytes int64
	for i, p := range preds {
		probe := tr.Start(telemetry.PhaseFetch)
		rids, b, err := r.ridsFor(p)
		probe.End()
		if err != nil {
			return 0, Cost{}, err
		}
		bytes += b
		if i == 0 {
			result = rids
			continue
		}
		sp := tr.Start(telemetry.PhaseFilter)
		result = intersectSorted(result, rids)
		sp.End()
	}
	return len(result), Cost{Method: RIDMerge, BytesRead: bytes, Rows: len(result)}, nil
}

func (r *Relation) countBitmapMerge(preds []Pred, opt *SelectOptions) (int, Cost, error) {
	tr := opt.Trace
	bitmapBytes := int64((r.Rows() + 7) / 8)
	var st core.Stats

	// Single predicate: count straight off the evaluator. With Parallel
	// set, no result vector is materialized at all.
	if len(preds) == 1 {
		p := preds[0]
		c, _ := r.Column(p.Col)
		if c.bitmap == nil {
			return 0, Cost{}, fmt.Errorf("engine: column %q has no bitmap index", p.Col)
		}
		rop, rank, all, none, err := translateChecked(c, p)
		if err != nil {
			return 0, Cost{}, err
		}
		t0 := time.Now()
		var n int
		cls := workload.ClassOf(p.Op)
		switch {
		case none:
			n = 0
		case all:
			n = r.Rows()
		case opt.Parallel:
			cls = workload.ClassOf(rop)
			n = c.bitmap.SegmentedCount(rop, rank, &core.EvalOptions{Stats: &st, Trace: tr}, opt.segConfig())
		default:
			cls = workload.ClassOf(rop)
			n = popcount(c.bitmap.Eval(rop, rank, &core.EvalOptions{Stats: &st, Trace: tr}), tr)
		}
		if opt.perPred != nil {
			*opt.perPred = append(*opt.perPred,
				predActual{Scans: st.Scans, NS: time.Since(t0).Nanoseconds()})
		}
		if opt.Workload != nil {
			opt.Workload.Observe(workload.Event{Attr: p.Col, Class: cls, Value: rank,
				Matches: n, Rows: r.Rows(), Scans: st.Scans, NS: time.Since(t0).Nanoseconds()})
		}
		bytes := int64(st.Scans) * bitmapBytes
		return n, Cost{Method: BitmapMerge, BytesRead: bytes, Rows: n, Stats: st}, nil
	}

	// Multi-predicate: materialize the running AND for all but the last
	// predicate, then fuse the final AND with the popcount so the result
	// vector of the conjunction is never written.
	var out *bitvec.Vector
	var bytes int64
	n := 0
	for k, p := range preds {
		before := st
		var t0 time.Time
		if opt.perPred != nil {
			t0 = time.Now()
		}
		res, err := r.evalBitmapPred(p, opt, &st)
		if err != nil {
			return 0, Cost{}, err
		}
		if opt.perPred != nil {
			*opt.perPred = append(*opt.perPred,
				predActual{Scans: st.Scans - before.Scans, NS: time.Since(t0).Nanoseconds()})
		}
		bytes += int64(st.Scans-before.Scans) * bitmapBytes
		switch {
		case out == nil:
			out = res
		case k == len(preds)-1:
			sp := tr.Start(telemetry.PhasePopcount)
			n = bitvec.AndCount(out, res)
			sp.End()
			st.Ands++
		default:
			sp := tr.Start(telemetry.PhaseBoolOps)
			out.And(res)
			sp.End()
			st.Ands++
		}
	}
	return n, Cost{Method: BitmapMerge, BytesRead: bytes, Rows: n, Stats: st}, nil
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
	best := Method(0)
	bestBytes := int64(math.MaxInt64)
	for _, m := range []Method{FullScan, IndexFilter, RIDMerge, BitmapMerge} {
		e, err := r.EstimateBytes(preds, m)
		if err != nil {
			fmt.Fprintf(&sb, "  %-16s unavailable: %v\n", m, err)
			continue
		}
		fmt.Fprintf(&sb, "  %-16s ~%d bytes\n", m, e)
		if e < bestBytes {
			best, bestBytes = m, e
		}
	}
	if bestBytes < int64(math.MaxInt64) {
		fmt.Fprintf(&sb, "  -> auto picks %v\n", best)
	} else {
		sb.WriteString("  -> no executable plan\n")
	}
	return sb.String()
}
