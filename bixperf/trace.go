package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"bitmapindex/internal/bitvec"
	"bitmapindex/internal/catalog"
	"bitmapindex/internal/core"
	"bitmapindex/internal/design"
	"bitmapindex/internal/engine"
	"bitmapindex/internal/flight"
	"bitmapindex/internal/reorder"
	"bitmapindex/internal/roaring"
	"bitmapindex/internal/storage"
	"bitmapindex/internal/telemetry"
	"bitmapindex/internal/workload"
)

// span is one timed call into a layer. Spans of one query share Query;
// Replayed marks a lower layer re-run on the same input right after its
// parent returned, because it cannot be entered inside the parent's call
// from outside. Times are nanoseconds since the tracer started.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = root
	Name     string `json:"name"`
	Query    int    `json:"query"` // -1 for build spans
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Replayed bool   `json:"replayed,omitempty"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) record(name string, parent, q int, start, end time.Time, replayed bool) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Query: q,
		StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds(), Replayed: replayed})
	return id
}

// time runs fn as one span and returns the span id and its duration.
func (t *tracer) time(name string, parent, q int, replayed bool, fn func()) (int, time.Duration) {
	start := time.Now()
	fn()
	end := time.Now()
	return t.record(name, parent, q, start, end, replayed), end.Sub(start)
}

// selfMicros returns, per span name, each span's self time in µs: its
// duration minus the durations of its child spans (nested or replayed).
func (t *tracer) selfMicros() map[string][]float64 {
	child := make(map[int]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	out := make(map[string][]float64)
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], float64(s.EndNS-s.StartNS-child[s.ID])/1e3)
	}
	return out
}

func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// layerStats collects the per-call samples of the traced replay.
type layerStats struct {
	us      map[string][]float64 // per-call µs samples by metric name
	queries int
	files   int
	bytes   int64
	scans   int
	ops     int
	hitRate float64 // CachedStore hits over reads (index mode)
}

func (ls *layerStats) add(name string, d time.Duration) {
	ls.us[name] = append(ls.us[name], float64(d)/1e3)
}

func (ls *layerStats) addNS(name string, ns int64) {
	ls.us[name] = append(ls.us[name], float64(ns)/1e3)
}

// runTraced is the traced run. It measures the same closed loop twice,
// without and with client spans (the tracing overhead is the qps
// difference), then replays a fixed prefix of the query stream in-process
// through catalog, storage, reorder and core, and times the codec,
// bitvec and observability primitives on their own.
func runTraced(cfg config) (*result, error) {
	ss, err := newSession(cfg)
	if err != nil {
		return nil, err
	}
	defer ss.close()
	s := cfg.spec
	tr := newTracer()
	res := &result{}
	fail := func(lr loadResult) {
		res.Attempted += lr.attempted
		res.Failed += lr.failed
		if lr.firstFailure != "" {
			ss.printf("first failure: %s\n", lr.firstFailure)
		}
	}

	srv, _, err := ss.setup()
	if err != nil {
		return nil, err
	}
	fail(ss.warmup(srv))
	// Untraced and traced drives alternate in three rounds, each from
	// the start of the stream, so drift hits both sides alike.
	var plain, traced loadResult
	round := max(cfg.dur/12, 100*time.Millisecond)
	for r := 0; r < 3; r++ {
		plain = merge(plain, drive(srv.base, ss.d.stream, s.conns, round, nil))
		traced = merge(traced, drive(srv.base, ss.d.stream, s.conns, round, tr))
	}
	srv.stop()
	fail(plain)
	fail(traced)
	qpsPlain := float64(plain.attempted) / plain.scaledElapsed.Seconds()
	qpsTraced := float64(traced.attempted) / traced.scaledElapsed.Seconds()

	ls := &layerStats{us: make(map[string][]float64)}
	var mem []*core.Index
	if s.table {
		mem, err = replayTable(ss, tr, ls, res)
	} else {
		mem, err = replayIndex(ss, tr, ls, res)
	}
	if err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0

	self := tr.selfMicros()
	med := func(name string) float64 { return median(ls.us[name]) }
	perQuery := func(n float64) float64 { return n / float64(max(ls.queries, 1)) }
	res.set("bixstore.overhead_us", median(micros(traced.overheads)), "us")
	res.set("catalog.query_us", med("catalog.query"), "us")
	res.set("catalog.self_us", median(self["catalog.query"]), "us")
	res.set("catalog.create_s", med("catalog.create")/1e6, "s")
	res.set("catalog.open_ms", med("catalog.open")/1e3, "ms")
	res.set("reorder.mapback_us", med("reorder.mapback"), "us")
	res.set("storage.eval_us", med("storage.eval"), "us")
	res.set("storage.read_us", med("storage.read"), "us")
	res.set("storage.decode_us", med("storage.decode"), "us")
	res.set("storage.extract_us", med("storage.extract"), "us")
	res.set("storage.residual_us", med("storage.residual"), "us")
	res.set("storage.files_per_query", perQuery(float64(ls.files)), "count")
	res.set("storage.bytes_read_per_query", perQuery(float64(ls.bytes)), "B")
	res.set("storage.save_s", med("storage.save")/1e6, "s")
	res.set("cache.hit_rate", ls.hitRate, "ratio")
	res.set("cache.hit_eval_us", med("cache.hit"), "us")
	res.set("cache.miss_eval_us", med("cache.miss"), "us")
	res.set("core.eval_us", med("core.eval"), "us")
	res.set("core.scans_per_query", perQuery(float64(ls.scans)), "count")
	res.set("core.ops_per_query", perQuery(float64(ls.ops)), "count")
	res.set("core.build_s", med("core.build")/1e6, "s")
	res.set("trace.overhead_pct", 100*(qpsPlain-qpsTraced)/qpsPlain, "%")
	micro(res, mem)

	path := filepath.Join(ss.dir, "spans.json")
	if err := tr.write(path); err != nil {
		return nil, err
	}
	ss.printf("workload %s seed %d: %d rows, traced run\n", s.name, cfg.seed, ss.d.rows)
	ss.printf("spans: %d written to %s\n", len(tr.spans), path)
	ss.printf("tracing overhead: untraced %.1f qps, traced %.1f qps over 3 alternating rounds of %v each (%.2f%%)\n",
		qpsPlain, qpsTraced, round, 100*(qpsPlain-qpsTraced)/qpsPlain)
	ss.printf("replayed after their parent (self time by subtraction): %s\n", replayedLayers(tr))
	ss.printf("in-process replay: %d queries (fixed prefix of the stream)\n", ls.queries)
	if !s.table {
		ss.printf("not applicable in index mode (reported as 0): catalog.*, reorder.mapback_us\n")
	} else {
		ss.printf("not applicable in table mode (reported as 0): cache.*\n")
		if s.order == "none" {
			ss.printf("reorder.mapback_us is 0: rows are not reordered\n")
		}
	}
	printMetrics(ss.cfg.out, res)
	return res, nil
}

// replayedLayers names the span kinds measured by replay.
func replayedLayers(tr *tracer) string {
	seen := map[string]bool{}
	var names []string
	for _, s := range tr.spans {
		if s.Replayed && !seen[s.Name] {
			seen[s.Name] = true
			names = append(names, s.Name)
		}
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// checkVector compares an in-process result with the brute-force answer.
func checkVector(q *query, v *bitvec.Vector) error {
	var rids []int
	if q.rids != nil {
		rids = []int{}
		v.Ones(func(r int) bool {
			rids = append(rids, r)
			return len(rids) < ridLimit
		})
	}
	return check(q, queryReply{Matches: v.Count(), RIDs: rids})
}

// replayTable times catalog.Create (with core.Build, reorder and
// storage.Save replayed per attribute), catalog.Open, and then the fixed
// query prefix through Table.Query, with Store.Eval, Index.Eval and
// MapBack replayed under it. It returns the in-memory indexes.
func replayTable(ss *session, tr *tracer, ls *layerStats, res *result) ([]*core.Index, error) {
	s, d := ss.cfg.spec, ss.d
	rel := engine.NewRelation("bench")
	for c, col := range s.cols {
		raw := make([]int64, d.rows)
		for r, v := range d.data[c] {
			raw[r] = int64(v)
		}
		if _, err := rel.AddInt64(col.name, raw); err != nil {
			return nil, err
		}
	}
	codec, err := storage.ParseCodec(s.codec)
	if err != nil {
		return nil, err
	}
	order, err := reorder.ParseOrder(s.order)
	if err != nil {
		return nil, err
	}
	sopts := storage.Options{Scheme: storage.BitmapLevel, Codec: codec}
	scratch := filepath.Join(ss.dir, "replay")
	var cerr error
	cid, took := tr.time("catalog.create", 0, -1, false, func() {
		_, cerr = catalog.Create(filepath.Join(scratch, "table"), rel, catalog.Options{Store: sopts, Encoding: core.RangeEncoded, Reorder: order})
	})
	if cerr != nil {
		return nil, cerr
	}
	ls.add("catalog.create", took)

	// Replay the build's layers on the same relation.
	var perm []int
	if order != reorder.None {
		cols := make([][]uint64, len(s.cols))
		for c, col := range s.cols {
			rc, _ := rel.Column(col.name)
			cols[c] = rc.Ranks()
		}
		tr.time("reorder.permutation", cid, -1, true, func() { perm = reorder.Permutation(order, cols) })
	}
	mem := make([]*core.Index, len(s.cols))
	var build, save time.Duration
	for c, col := range s.cols {
		rc, _ := rel.Column(col.name)
		ranks := rc.Ranks()
		if perm != nil {
			ranks = reorder.Apply(perm, ranks)
		}
		base, err := design.Knee(rc.Card())
		if err != nil {
			return nil, err
		}
		var berr, serr error
		_, bt := tr.time("core.build", cid, -1, true, func() {
			mem[c], berr = core.Build(ranks, rc.Card(), base, core.RangeEncoded, nil)
		})
		if berr != nil {
			return nil, berr
		}
		_, st := tr.time("storage.save", cid, -1, true, func() {
			_, serr = storage.Save(mem[c], filepath.Join(scratch, "attr", col.name), sopts)
		})
		if serr != nil {
			return nil, serr
		}
		build, save = build+bt, save+st
	}
	ls.add("core.build", build)
	ls.add("storage.save", save)
	if err := os.RemoveAll(scratch); err != nil {
		return nil, err
	}

	var tbl *catalog.Table
	for i := 0; i < 5; i++ {
		var oerr error
		_, took := tr.time("catalog.open", 0, -1, false, func() { tbl, oerr = catalog.Open(ss.index) })
		if oerr != nil {
			return nil, oerr
		}
		ls.add("catalog.open", took)
	}
	perm = tbl.Permutation()

	for qi := 0; qi < min(s.traceQueries, len(d.stream)); qi++ {
		q := &d.stream[qi]
		preds := make([]engine.Pred, len(q.preds))
		for i, p := range q.preds {
			preds[i] = engine.Pred{Col: s.cols[p.col].name, Op: p.op, Val: int64(p.val)}
		}
		var (
			m    storage.Metrics
			out  *bitvec.Vector
			qerr error
		)
		qid, took := tr.time("catalog.query", 0, qi, false, func() { out, qerr = tbl.Query(preds, &m) })
		res.Attempted++
		if qerr == nil {
			qerr = checkVector(q, out)
		}
		if qerr != nil {
			res.Failed++
			continue
		}
		ls.add("catalog.query", took)
		ls.queries++
		ls.files += m.FilesRead
		ls.bytes += m.BytesRead

		var conj *bitvec.Vector
		for _, p := range q.preds {
			a, err := tbl.Attr(s.cols[p.col].name)
			if err != nil {
				return nil, err
			}
			rop, rank, all, none := a.Dict().Translate(p.op, int64(p.val))
			if all || none {
				continue
			}
			v, err := replayEval(tr, ls, qid, qi, a.Store(), mem[p.col], rop, rank)
			if err != nil {
				res.Failed++
				continue
			}
			if conj == nil {
				conj = v
			} else {
				conj.And(v)
			}
		}
		if perm != nil && conj != nil {
			_, took := tr.time("reorder.mapback", qid, qi, true, func() { reorder.MapBack(perm, conj) })
			ls.add("reorder.mapback", took)
		}
	}
	return mem, nil
}

// replayEval runs Store.Eval as a span (replayed under parent when parent
// is non-zero), then Index.Eval on the in-memory index with the same
// predicate as its replayed child, and records the storage breakdown.
func replayEval(tr *tracer, ls *layerStats, parent, qi int, st *storage.Store, mem *core.Index, op core.Op, v uint64) (*bitvec.Vector, error) {
	var (
		pm   storage.Metrics
		out  *bitvec.Vector
		eerr error
	)
	sid, took := tr.time("storage.eval", parent, qi, parent != 0, func() { out, eerr = st.Eval(op, v, &pm) })
	if eerr != nil {
		return nil, eerr
	}
	var (
		stats core.Stats
		mv    *bitvec.Vector
	)
	_, ct := tr.time("core.eval", sid, qi, true, func() { mv = mem.Eval(op, v, &core.EvalOptions{Stats: &stats}) })
	if !mv.Equal(out) {
		return nil, fmt.Errorf("in-memory and stored evaluation differ for %s %d", op, v)
	}
	ls.add("storage.eval", took)
	ls.addNS("storage.read", pm.ReadNS)
	ls.addNS("storage.decode", pm.DecompressNS)
	ls.addNS("storage.extract", pm.ExtractNS)
	ls.addNS("storage.residual", took.Nanoseconds()-pm.ReadNS-pm.DecompressNS-pm.ExtractNS-ct.Nanoseconds())
	ls.add("core.eval", ct)
	ls.scans += stats.Scans
	ls.ops += stats.Ops()
	return out, nil
}

// replayIndex times core.Build and storage.Save of the single column,
// then the fixed query prefix through CachedStore.Eval (the served
// pool) and through Store.Eval with Index.Eval replayed under it.
func replayIndex(ss *session, tr *tracer, ls *layerStats, res *result) ([]*core.Index, error) {
	s, d := ss.cfg.spec, ss.d
	vals := make([]uint64, d.rows)
	for r, v := range d.data[0] {
		vals[r] = uint64(v)
	}
	base, err := core.ParseBase(s.base)
	if err != nil {
		return nil, err
	}
	codec, err := storage.ParseCodec(s.codec)
	if err != nil {
		return nil, err
	}
	card := uint64(s.cols[0].card)
	var (
		mem        *core.Index
		berr, serr error
	)
	_, took := tr.time("core.build", 0, -1, false, func() { mem, berr = core.Build(vals, card, base, core.RangeEncoded, nil) })
	if berr != nil {
		return nil, berr
	}
	ls.add("core.build", took)
	scratch := filepath.Join(ss.dir, "replay")
	_, took = tr.time("storage.save", 0, -1, false, func() {
		_, serr = storage.Save(mem, scratch, storage.Options{Scheme: storage.BitmapLevel, Codec: codec})
	})
	if serr != nil {
		return nil, serr
	}
	ls.add("storage.save", took)
	if err := os.RemoveAll(scratch); err != nil {
		return nil, err
	}

	st, err := storage.Open(ss.index)
	if err != nil {
		return nil, err
	}
	cs, err := storage.NewCached(st, s.cache)
	if err != nil {
		return nil, err
	}
	for qi := 0; qi < min(s.traceQueries, len(d.stream)); qi++ {
		q := &d.stream[qi]
		p := q.preds[0]
		var (
			cm   storage.Metrics
			out  *bitvec.Vector
			qerr error
		)
		_, took := tr.time("cache.eval", 0, qi, false, func() { out, qerr = cs.Eval(p.op, uint64(p.val), &cm) })
		res.Attempted++
		if qerr == nil {
			qerr = checkVector(q, out)
		}
		if qerr == nil {
			_, qerr = replayEval(tr, ls, 0, qi, st, mem, p.op, uint64(p.val))
		}
		if qerr != nil {
			res.Failed++
			continue
		}
		if cm.FilesRead == 0 {
			ls.add("cache.hit", took)
		} else {
			ls.add("cache.miss", took)
		}
		ls.queries++
		ls.files += cm.FilesRead
		ls.bytes += cm.BytesRead
	}
	ls.hitRate = cs.HitRate()
	return []*core.Index{mem}, nil
}

// micro times the codec, bitvec and observability primitives the served
// path calls, each as the median of several timed batches.
func micro(res *result, mem []*core.Index) {
	// roaring over the workload's own stored bitmaps.
	var (
		vecs []*bitvec.Vector
		raw  int
	)
	for _, ix := range mem {
		for i := 0; i < ix.Components(); i++ {
			for j := 0; j < ix.ComponentBitmaps(i); j++ {
				v := ix.StoredBitmap(i, j)
				vecs = append(vecs, v)
				raw += v.SizeBytes()
			}
		}
	}
	enc := make([][]byte, len(vecs))
	res.set("roaring.encode_mb_s", throughput(raw, func() {
		for i, v := range vecs {
			enc[i], _ = roaring.FromVector(v).MarshalBinary()
		}
	})/1e6, "MB/s")
	res.set("roaring.decode_mb_s", throughput(raw, func() {
		for _, b := range enc {
			var rb roaring.Bitmap
			if rb.UnmarshalBinary(b) == nil {
				rb.ToVector()
			}
		}
	})/1e6, "MB/s")

	// bitvec primitives on 2^20-row vectors.
	const n = 1 << 20
	r := rand.New(rand.NewSource(1))
	a, b := bitvec.New(n), bitvec.New(n)
	for i := 0; i < n; i++ {
		a.SetBool(i, r.Intn(2) == 0)
		b.SetBool(i, r.Intn(2) == 0)
	}
	payload := a.PayloadBytes()
	var sink bitvec.Vector
	res.set("bitvec.setpayload_gb_s", throughput(n/8, func() { sink.SetPayload(n, payload) })/1e9, "GB/s")
	res.set("bitvec.payloadbytes_gb_s", throughput(n/8, func() { a.PayloadBytes() })/1e9, "GB/s")
	c := a.Clone()
	res.set("bitvec.and_gb_s", throughput(n/8, func() { c.And(b) })/1e9, "GB/s")

	// Per-query observability on the served path.
	q := "<= 17"
	tr := telemetry.NewTrace(q).Profile()
	tr.Add(telemetry.PhaseFetch, time.Microsecond)
	tr.Add(telemetry.PhaseBoolOps, time.Microsecond)
	tr.Finish()
	rec := flight.New(0)
	frec := flight.Record{TraceID: tr.ID(), Query: q, Plan: "http-query", Op: "<=", Value: 17,
		Total: 50 * time.Microsecond, Rows: 1000, Scans: 2, Ands: 1}
	res.set("flight.add_ns", perCall(func() { rec.Add(&frec, tr) }), "ns")
	acc := workload.New([]workload.AttrInfo{{Name: "value", Card: 100}})
	ev := workload.Event{Attr: "value", Class: workload.ClassOf(core.Le), Value: 17,
		Matches: 1000, Rows: 65536, Scans: 2, Bytes: 16384, NS: 50000}
	res.set("workload.observe_ns", perCall(func() { acc.Observe(ev) }), "ns")
	res.set("telemetry.trace_ns", perCall(func() {
		t := telemetry.NewTrace(q).Profile()
		t.Add(telemetry.PhaseFetch, time.Microsecond)
		t.Add(telemetry.PhaseBoolOps, time.Microsecond)
		t.Add(telemetry.PhasePopcount, time.Microsecond)
		t.Finish()
	}), "ns")
}

// throughput returns bytes per second of fn, which processes nbytes per
// call: the median of seven batches of at least 20ms each.
func throughput(nbytes int, fn func()) float64 {
	return medianOf(7, func() float64 {
		calls := 0
		start := time.Now()
		for calls == 0 || time.Since(start) < 20*time.Millisecond {
			fn()
			calls++
		}
		return float64(nbytes) * float64(calls) / time.Since(start).Seconds()
	})
}

// perCall returns ns per call of fn: the median of seven batches of at
// least 10ms each.
func perCall(fn func()) float64 {
	return medianOf(7, func() float64 {
		calls := 0
		start := time.Now()
		for time.Since(start) < 10*time.Millisecond {
			for i := 0; i < 64; i++ {
				fn()
			}
			calls += 64
		}
		return float64(time.Since(start).Nanoseconds()) / float64(calls)
	})
}
