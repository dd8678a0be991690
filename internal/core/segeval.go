package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bitmapindex/internal/bitvec"
	"bitmapindex/internal/flight"
	"bitmapindex/internal/invariant"
	"bitmapindex/internal/profile"
	"bitmapindex/internal/telemetry"
)

// segeval.go — the executor of compiled predicates.
//
// Every evaluation in this package compiles its predicate into a
// segProgram (segprog.go), resolves the program's refs once on the calling
// goroutine, and replays the program over fixed-width word windows of the
// row space ("segments", 2^SegBits bits, word-aligned by construction)
// using the range-restricted bitvec kernels. Eval and Count drain the
// windows on the calling goroutine, or share them with a pool of workers
// when EvalOptions.Workers > 1. Each worker writes only its own segments'
// windows of the shared result vector, so stitching is free: the windows
// are disjoint and the final vector is complete once every segment is
// processed.

// DefaultSegBits is log2 of the default segment width in bits: 2^18 bits
// = 32 KiB per bitmap per segment, small enough that one segment's working
// set (result + a few registers + the referenced bitmap windows) stays
// cache-resident, large enough that per-segment dispatch overhead is noise.
const DefaultSegBits = 18

// MinSegBits is the smallest accepted segment width (one 64-bit word).
const MinSegBits = 6

// SegConfig sets how an evaluation splits its rows into segments and how
// many goroutines combine them. The zero value runs the default segment
// width on the calling goroutine only.
type SegConfig struct {
	// SegBits is log2 of the segment width in bits. 0 selects
	// DefaultSegBits; values below MinSegBits are clamped up.
	SegBits int
	// Workers bounds the number of goroutines combining segments,
	// including the calling goroutine. <= 1 runs every segment on the
	// calling goroutine; > 1 shares them with the segment worker pool.
	// The effective count never exceeds the number of segments or the
	// pool size.
	Workers int
}

func (cfg SegConfig) normalized() SegConfig {
	if cfg.SegBits == 0 {
		cfg.SegBits = DefaultSegBits
	}
	if cfg.SegBits < MinSegBits {
		cfg.SegBits = MinSegBits
	}
	return cfg
}

// segPool is the process-wide segment worker pool: GOMAXPROCS goroutines
// started on first use and reused across queries. Submission is
// non-blocking — when every pool worker is busy (e.g. with another
// query's segments) the submitting query just runs with fewer helpers,
// because the calling goroutine always drains segments itself. That makes
// concurrent segmented queries degrade gracefully instead of deadlocking
// or over-subscribing the CPU.
var segPool struct {
	once sync.Once
	jobs chan func()
}

func segPoolStart() {
	n := runtime.GOMAXPROCS(0)
	segPool.jobs = make(chan func())
	telemetry.SegmentWorkers.Set(int64(n))
	for i := 0; i < n; i++ {
		go segPoolWorker()
	}
}

// segPoolWorker drains the shared job channel for the life of the
// process. The pool is sized once to GOMAXPROCS and never torn down, so
// the range below intentionally has no shutdown signal.
//
//bix:daemon (process-wide segment worker pool, lives until exit)
func segPoolWorker() {
	for fn := range segPool.jobs {
		fn()
	}
}

// segPoolSubmit hands fn to an idle pool worker, reporting false when none
// is idle (the jobs channel is unbuffered, so the send succeeds only if a
// worker is blocked receiving).
func segPoolSubmit(fn func()) bool {
	segPool.once.Do(segPoolStart)
	select {
	case segPool.jobs <- fn:
		return true
	default:
		return false
	}
}

// Evaluation modes of segRun.
const (
	segMaterialize = iota // build the full result vector
	segCount              // per-segment popcount, no shared result
)

// segRegSet is one worker's scratch register file, recycled across
// queries through segRegPool: for a fixed row count the register vectors
// are the dominant per-drain allocation (nregs × rows/8 bytes per worker
// per query), and reusing them makes steady-state segmented evaluation
// allocation-free outside the result vector itself.
//
// vecs owns the scratch vectors; regs is the view handed to runSegment,
// in which register 0 may alias the query's shared result vector instead
// of a scratch. Stale scratch content is safe by construction: a
// segProgram initializes every register (sLoad/sZero/sOnes) inside the
// segment window before combining into it, and Count reads only the
// window just written.
type segRegSet struct {
	rows int
	vecs []*bitvec.Vector // owned scratch, reused across queries
	regs []*bitvec.Vector // register view; regs[0] may alias the shared result
}

var segRegPool sync.Pool

// getSegRegs checks a register set out of the pool, rebuilding it when the
// row count changed or the program needs more registers than last time.
// When shared is non-nil it becomes register 0 (materialize mode).
func getSegRegs(rows, nregs int, shared *bitvec.Vector) *segRegSet {
	rs, ok := segRegPool.Get().(*segRegSet)
	if !ok || rs.rows != rows {
		rs = &segRegSet{rows: rows}
	}
	if cap(rs.regs) < nregs {
		rs.regs = make([]*bitvec.Vector, nregs)
	}
	rs.regs = rs.regs[:nregs]
	own := 0
	for i := 0; i < nregs; i++ {
		if i == 0 && shared != nil {
			rs.regs[0] = shared
			continue
		}
		if own == len(rs.vecs) {
			rs.vecs = append(rs.vecs, bitvec.New(rows))
		}
		rs.regs[i] = rs.vecs[own]
		own++
	}
	return rs
}

// putSegRegs returns a register set to the pool, dropping the aliased
// result reference so the pool never retains a caller's result vector.
func putSegRegs(rs *segRegSet) {
	if rs == nil {
		return
	}
	for i := range rs.regs {
		rs.regs[i] = nil
	}
	segRegPool.Put(rs)
}

// segRun is the one evaluation path behind Eval and Count: compile,
// resolve, run, then publish the query's scan and operation counts to
// opt.Stats, the telemetry registry and the flight recorder. Scans are
// counted from the program's refs whether or not opt.Stats is set. A run
// on the calling goroutine is recorded under the encoding's plan tag with
// its window combination time traced as bool_ops; a pool run (Workers > 1)
// is counted in bix_segment_eval_total, recorded under the eval-segmented
// plan tag and traced per segment, so skew stays visible.
func (ix *Index) segRun(op Op, v uint64, opt *EvalOptions, mode int) (*bitvec.Vector, int) {
	var o EvalOptions
	if opt != nil {
		o = *opt
	}
	cfg := o.SegConfig.normalized()
	plan, phase := ix.evalPlan(), telemetry.PhaseBoolOps
	if cfg.Workers > 1 {
		plan, phase = planEvalSegmented, telemetry.PhaseSegments
		telemetry.SegmentEvalTotal.Inc()
	}
	hits0, misses0 := telemetry.CacheHitsTotal.Value(), telemetry.CacheMissesTotal.Value()
	t0 := time.Now()
	prog := compileProgram(ix.shape(), op, v)
	var x *segExec
	profile.Do(o.Trace.ID(), "eval", func() {
		x = ix.prepare(prog, &o, phase)
		x.run(1<<(cfg.SegBits-6), cfg.Workers, mode)
	})
	res, count := x.res, int(x.total.Load())

	o.Stats.addRun(x.scans, prog.ops)
	elapsed := time.Since(t0)
	telemetry.RecordEval(x.scans, prog.ops.Ands, prog.ops.Ors, prog.ops.Xors,
		prog.ops.Nots, elapsed, o.Trace)
	rows := int64(-1)
	if mode == segCount {
		rows = int64(count)
	}
	frec := flight.Record{
		TraceID: o.Trace.ID(), Plan: plan, Op: op.String(), Value: v,
		Total: elapsed, Rows: rows,
		Scans: x.scans, Ands: prog.ops.Ands, Ors: prog.ops.Ors,
		Xors: prog.ops.Xors, Nots: prog.ops.Nots,
		CacheHits:   telemetry.CacheHitsTotal.Value() - hits0,
		CacheMisses: telemetry.CacheMissesTotal.Value() - misses0,
	}
	flight.Default().Add(&frec, o.Trace)

	if invariant.Enabled {
		ix.crossCheck(op, v, x, &o)
	}
	return res, count
}

// exec runs prog on the calling goroutine and accumulates its counts
// into opt.Stats, publishing nothing: the evaluator behind EvalRangeNaive
// and the aggregates' digit bitmaps.
func (ix *Index) exec(prog *segProgram, opt *EvalOptions) *bitvec.Vector {
	var o EvalOptions
	if opt != nil {
		o = *opt
	}
	x := ix.prepare(prog, &o, telemetry.PhaseBoolOps)
	res := x.run(1<<(DefaultSegBits-6), 1, segMaterialize)
	o.Stats.addRun(x.scans, prog.ops)
	return res
}

// segExec is one prepared evaluation: a compiled program with every ref
// resolved to a bitmap, plus the shared state of its run.
type segExec struct {
	prog  *segProgram
	srcs  []*bitvec.Vector // srcs[i] is the bitmap prog.refs[i] names
	rows  int
	scans int // bitmap scans charged to the evaluation
	tr    *telemetry.Trace
	phase telemetry.Phase // trace phase of the per-window combination time

	// Run state: the segment cursor, the shared result and the count.
	mode, nwords, segWords, nseg int
	res                          *bitvec.Vector
	next, total                  atomic.Int64
	wg                           sync.WaitGroup
}

// prepare resolves every ref of prog sequentially on the calling goroutine
// (the documented Fetch contract), counting one scan per distinct stored
// bitmap unless o.Buffered reports it resident.
func (ix *Index) prepare(prog *segProgram, o *EvalOptions, phase telemetry.Phase) *segExec {
	x := &segExec{prog: prog, srcs: make([]*bitvec.Vector, len(prog.refs)),
		rows: ix.rows, tr: o.Trace, phase: phase}
	for i, rf := range prog.refs {
		if rf.comp >= 0 && (o.Buffered == nil || !o.Buffered(rf.comp, rf.slot)) {
			x.scans++
		}
		x.srcs[i] = ix.resolve(o, rf)
	}
	return x
}

// resolve returns the bitmap rf names: B_nn, or a stored bitmap from the
// caller's Fetch or from memory, timed as the fetch phase.
func (ix *Index) resolve(o *EvalOptions, rf segRef) *bitvec.Vector {
	if rf.comp < 0 {
		return ix.nn
	}
	sp := o.Trace.Start(telemetry.PhaseFetch)
	defer sp.End()
	if o.Fetch != nil {
		return o.Fetch(rf.comp, rf.slot)
	}
	return ix.comps[rf.comp][rf.slot]
}

// run replays the program over windows of segWords words, using up to
// workers goroutines including the calling one. It leaves the result
// vector (segMaterialize, also returned) or the qualifying-row count
// (segCount) in x. A segExec runs once.
func (x *segExec) run(segWords, workers, mode int) *bitvec.Vector {
	x.mode, x.nwords, x.segWords = mode, (x.rows+63)/64, max(segWords, 1)
	x.nseg = (x.nwords + x.segWords - 1) / x.segWords
	if mode == segMaterialize {
		x.res = bitvec.New(x.rows)
	}
	// Pool workers combine segments on this query's behalf from a foreign
	// goroutine; the pprof labels are what tie their CPU samples back to
	// the query (phase "segment" vs the caller's own "eval").
	qid := x.tr.ID()
	for i := 1; i < min(workers, x.nseg); i++ {
		x.wg.Add(1)
		if !segPoolSubmit(func() { defer x.wg.Done(); profile.Do(qid, "segment", x.drain) }) {
			x.wg.Done()
			break // pool saturated; the caller still drains everything
		}
	}
	x.drain()
	x.wg.Wait()
	return x.res
}

// drain claims segments until none are left.
func (x *segExec) drain() {
	// Worker-local scratch registers, checked out of segRegPool on the
	// first segment this goroutine actually claims and returned at exit.
	// In materialize mode register 0 aliases the shared result: workers
	// write disjoint word windows, so no synchronization is needed beyond
	// the final wg.Wait.
	var rs *segRegSet
	local := 0
	for {
		s := int(x.next.Add(1)) - 1
		if s >= x.nseg {
			break
		}
		if rs == nil {
			rs = getSegRegs(x.rows, x.prog.nregs, x.res)
		}
		lo := s * x.segWords
		hi := min(lo+x.segWords, x.nwords)
		var ts time.Time
		if x.tr != nil {
			ts = time.Now()
		}
		runSegment(x.prog, x.srcs, rs.regs, lo, hi)
		if x.mode == segCount {
			local += rs.regs[0].CountRange(lo, hi)
		}
		if x.tr != nil {
			x.tr.Add(x.phase, time.Since(ts))
		}
	}
	if rs != nil {
		putSegRegs(rs)
	}
	if local != 0 {
		x.total.Add(int64(local))
	}
}

// runSegment replays the compiled program over the word window [lo, hi).
//
//bix:hotpath
func runSegment(p *segProgram, srcs, regs []*bitvec.Vector, lo, hi int) {
	for i := range p.instrs {
		in := &p.instrs[i]
		dst := regs[in.dst]
		var src *bitvec.Vector
		if in.src.ref >= 0 {
			src = srcs[in.src.ref]
		} else if in.src.reg >= 0 {
			src = regs[in.src.reg]
		}
		switch in.kind {
		case sLoad:
			dst.CopyRange(src, lo, hi)
		case sZero:
			dst.ZeroRange(lo, hi)
		case sOnes:
			dst.OnesRange(lo, hi)
		case sAnd:
			dst.AndRange(src, lo, hi)
		case sOr:
			dst.OrRange(src, lo, hi)
		case sXor:
			dst.XorRange(src, lo, hi)
		case sAndNot:
			dst.AndNotRange(src, lo, hi)
		case sNot:
			dst.NotRange(lo, hi)
		}
	}
}

// crossCheck (bixdebug only) verifies one evaluation two ways without
// calling the caller's Fetch again. First, the same program re-run with a
// different window split must give the same bitmap or count: one
// window over all rows when x ran several, one-word windows when it ran
// one. Second, on range-encoded indexes Algorithm RangeEval, compiled into
// the same IR, must perform no fewer bitmap operations than RangeEval-Opt
// for range operators (paper Section 3) and must give the same result.
// Equality operators are excluded from the op comparison: on a nullable
// index the single-bitmap rewrite pays one extra AND with B_nn that the
// B_EQ chain does not. The result comparison reads RangeEval's bitmaps
// from x's sources and, for bitmaps only RangeEval reads, from memory; it
// is skipped when such a bitmap is reachable only through a Fetch.
func (ix *Index) crossCheck(op Op, v uint64, x *segExec, o *EvalOptions) {
	alt := x.nwords
	if x.nseg <= 1 {
		alt = 1
	}
	want := (&segExec{prog: x.prog, srcs: x.srcs, rows: x.rows}).run(alt, 1, segMaterialize)
	invariant.TailZero(want.Words(), want.Len())
	if x.mode == segMaterialize {
		invariant.TailZero(x.res.Words(), x.res.Len())
		invariant.Assert(want.Equal(x.res), "core: result differs across window splits")
	} else {
		invariant.Assert(want.Count() == int(x.total.Load()), "core: count differs across window splits")
	}
	if ix.enc != RangeEncoded {
		return
	}
	naive := compileRangeNaive(ix.shape(), op, v)
	if op.IsRange() {
		invariant.OptNoWorse(x.prog.ops.Ops(), naive.ops.Ops(),
			"core: RangeEval-Opt vs RangeEval, op "+op.String())
	}
	have := make(map[segRef]*bitvec.Vector, len(x.prog.refs))
	for i, rf := range x.prog.refs {
		have[rf] = x.srcs[i]
	}
	srcs := make([]*bitvec.Vector, len(naive.refs))
	for i, rf := range naive.refs {
		bv, ok := have[rf]
		if !ok {
			if o.Fetch != nil && rf.comp >= 0 {
				return // only the caller's Fetch can supply this bitmap
			}
			bv = ix.resolve(&EvalOptions{}, rf) // from memory, untraced
		}
		srcs[i] = bv
	}
	got := (&segExec{prog: naive, srcs: srcs, rows: x.rows}).run(x.nwords, 1, segMaterialize)
	invariant.Assert(got.Equal(want), "core: RangeEval disagrees with RangeEval-Opt")
}
