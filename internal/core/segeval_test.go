package core

import (
	"math/rand"
	"testing"

	"bitmapindex/internal/bitvec"
	"bitmapindex/internal/telemetry"
)

// segSizes are row counts straddling the default segment boundary
// (k*2^18 +/- 1), where window/tail-mask bugs live.
var segSizes = []int{(1 << 18) - 1, 1 << 18, (1 << 18) + 1}

// TestSegmentedMatchesSerialProperty is the keystone property test: Eval
// and segmented evaluation return the brute-force answer for every
// encoding, every operator, with and without nulls, at boundary row
// counts, several bases and several segment configurations, and every
// segment configuration reports Eval's Stats.
func TestSegmentedMatchesSerialProperty(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	const card = 20
	bases := []Base{{5, 4}, {20}, {5, 2, 2}}
	cfgs := []SegConfig{
		{}, // defaults: one or two segments at these sizes, caller only
		{SegBits: 14, Workers: 3},
		{SegBits: MinSegBits, Workers: 1},
	}
	for _, n := range segSizes {
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = uint64(r.Intn(card))
		}
		for _, withNulls := range []bool{false, true} {
			var nulls []bool
			var opts *BuildOptions
			if withNulls {
				nulls = make([]bool, n)
				for i := range nulls {
					nulls[i] = r.Intn(9) == 0
				}
				opts = &BuildOptions{Nulls: nulls}
			}
			var ixs []*Index
			for _, base := range bases {
				for _, enc := range []Encoding{RangeEncoded, EqualityEncoded, IntervalEncoded} {
					ix, err := Build(vals, card, base, enc, opts)
					if err != nil {
						t.Fatal(err)
					}
					ixs = append(ixs, ix)
				}
			}
			for _, op := range AllOps {
				for _, v := range []uint64{0, 7, card - 1, card + 5} {
					want := referenceEval(vals, nulls, op, v)
					for _, ix := range ixs {
						var wst Stats
						if got := ix.Eval(op, v, &EvalOptions{Stats: &wst}); !got.Equal(want) {
							t.Fatalf("n=%d nulls=%v base=%v enc=%v A %s %d: Eval differs from brute force",
								n, withNulls, ix.Base(), ix.Encoding(), op, v)
						}
						for _, cfg := range cfgs {
							var gst Stats
							got := ix.Eval(op, v, &EvalOptions{SegConfig: cfg, Stats: &gst})
							if !got.Equal(want) {
								t.Fatalf("n=%d nulls=%v base=%v enc=%v A %s %d cfg=%+v: segmented result differs from brute force",
									n, withNulls, ix.Base(), ix.Encoding(), op, v, cfg)
							}
							if gst != wst {
								t.Fatalf("n=%d nulls=%v base=%v enc=%v A %s %d cfg=%+v: stats %+v, want %+v",
									n, withNulls, ix.Base(), ix.Encoding(), op, v, cfg, gst, wst)
							}
						}
					}
				}
			}
		}
	}
}

// TestScansPublishedWithoutStats pins scan publication to the program's
// refs: an evaluation without EvalOptions.Stats still adds its scans to
// bix_scans_total, on the segmented entry points exactly as on Eval.
func TestScansPublishedWithoutStats(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	vals := make([]uint64, 3000)
	for i := range vals {
		vals[i] = uint64(r.Intn(100))
	}
	ix, err := Build(vals, 100, Base{10, 10}, RangeEncoded, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := SegConfig{SegBits: 10, Workers: 2}
	delta := func(fn func()) int64 {
		s0 := telemetry.ScansTotal.Value()
		fn()
		return telemetry.ScansTotal.Value() - s0
	}
	for _, op := range AllOps {
		for _, v := range []uint64{0, 55, 99} {
			var st Stats
			ix.Eval(op, v, &EvalOptions{Stats: &st})
			want := int64(st.Scans)
			if d := delta(func() { ix.Eval(op, v, nil) }); d != want {
				t.Fatalf("A %s %d: Eval published %d scans, want %d", op, v, d, want)
			}
			if d := delta(func() { ix.Eval(op, v, &EvalOptions{SegConfig: cfg}) }); d != want {
				t.Fatalf("A %s %d: pool Eval published %d scans, want %d", op, v, d, want)
			}
			if d := delta(func() { ix.Count(op, v, &EvalOptions{SegConfig: cfg}) }); d != want {
				t.Fatalf("A %s %d: pool Count published %d scans, want %d", op, v, d, want)
			}
		}
	}
}

// TestEvalFetchesEachBitmapOnce pins the Fetch contract of the one
// evaluation path: every stored bitmap a predicate reads is fetched
// exactly once per evaluation, right after Buffered was asked about it,
// including predicates whose program reads a bitmap in two places and,
// under -tags bixdebug, the cross-checks, which fetch nothing.
func TestEvalFetchesEachBitmapOnce(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	vals := make([]uint64, 500)
	for i := range vals {
		vals[i] = uint64(r.Intn(30))
	}
	for _, enc := range []Encoding{RangeEncoded, EqualityEncoded, IntervalEncoded} {
		ix, err := Build(vals, 30, Base{6, 5}, enc, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range AllOps {
			for v := uint64(0); v < 30; v++ {
				seen := map[[2]int]int{}
				asked := [2]int{-1, -1}
				var st Stats
				opt := &EvalOptions{
					Stats: &st,
					Buffered: func(comp, slot int) bool {
						asked = [2]int{comp, slot}
						return false
					},
					Fetch: func(comp, slot int) *bitvec.Vector {
						k := [2]int{comp, slot}
						if asked != k {
							t.Fatalf("enc=%v A %s %d: bitmap %v fetched after Buffered asked about %v", enc, op, v, k, asked)
						}
						asked = [2]int{-1, -1}
						seen[k]++
						return ix.StoredBitmap(comp, slot)
					},
				}
				ix.Eval(op, v, opt)
				for k, n := range seen {
					if n != 1 {
						t.Fatalf("enc=%v A %s %d: bitmap %v fetched %d times", enc, op, v, k, n)
					}
				}
				if len(seen) != st.Scans {
					t.Fatalf("enc=%v A %s %d: %d bitmaps fetched, %d scans charged", enc, op, v, len(seen), st.Scans)
				}
			}
		}
	}
}

// TestSegmentedLargeMultiSegment covers a run of several full segments
// plus a ragged tail at a narrower segment width.
func TestSegmentedLargeMultiSegment(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	n := 3<<16 + 1
	const card = 100
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = uint64(r.Intn(card))
	}
	ix, err := Build(vals, card, Base{10, 10}, RangeEncoded, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := SegConfig{SegBits: 12, Workers: 4} // 17 segments
	for _, op := range AllOps {
		for v := uint64(0); v < card; v += 13 {
			want := ix.Eval(op, v, nil)
			if got := ix.Eval(op, v, &EvalOptions{SegConfig: cfg}); !got.Equal(want) {
				t.Fatalf("A %s %d: segmented result differs", op, v)
			}
			if got := ix.Count(op, v, &EvalOptions{SegConfig: cfg}); got != want.Count() {
				t.Fatalf("A %s %d: pool Count = %d, want %d", op, v, got, want.Count())
			}
		}
	}
}

// TestSegmentedCountAnyEmpty pins the count fast path on empty and
// trivial results, including a non-trivial empty result (a present-rank
// equality that no row carries).
func TestSegmentedCountAnyEmpty(t *testing.T) {
	n := 1<<14 + 3
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = uint64(i % 10) // values 0..9 out of card 20: ranks 10..19 are empty
	}
	ix, err := Build(vals, 20, Base{5, 4}, RangeEncoded, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := SegConfig{SegBits: 10, Workers: 2}
	if got := ix.Count(Eq, 15, &EvalOptions{SegConfig: cfg}); got != 0 {
		t.Fatalf("empty Eq count = %d", got)
	}
	if got := ix.Count(Lt, 0, &EvalOptions{SegConfig: cfg}); got != 0 {
		t.Fatalf("A < 0 count = %d", got)
	}
	if got := ix.Count(Ge, 0, &EvalOptions{SegConfig: cfg}); got != n {
		t.Fatalf("A >= 0 count = %d, want %d", got, n)
	}
	// Trivial constants (v >= card).
	if got := ix.Count(Le, 99, &EvalOptions{SegConfig: cfg}); got != n {
		t.Fatalf("trivial Le count = %d, want %d", got, n)
	}
	if got := ix.Count(Gt, 99, &EvalOptions{SegConfig: cfg}); got != 0 {
		t.Fatalf("trivial Gt count = %d", got)
	}
}

// TestSegmentedWithNulls checks the null-masking path segment by segment.
func TestSegmentedWithNulls(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	n := 1<<13 + 5
	vals := make([]uint64, n)
	nulls := make([]bool, n)
	for i := range vals {
		vals[i] = uint64(r.Intn(7))
		nulls[i] = r.Intn(5) == 0
	}
	for _, enc := range []Encoding{RangeEncoded, EqualityEncoded, IntervalEncoded} {
		ix, err := Build(vals, 7, Base{7}, enc, &BuildOptions{Nulls: nulls})
		if err != nil {
			t.Fatal(err)
		}
		cfg := SegConfig{SegBits: 9, Workers: 3}
		for _, op := range AllOps {
			for v := uint64(0); v < 7; v++ {
				want := ix.Eval(op, v, nil)
				if got := ix.Eval(op, v, &EvalOptions{SegConfig: cfg}); !got.Equal(want) {
					t.Fatalf("enc=%v A %s %d: segmented result differs with nulls", enc, op, v)
				}
			}
		}
	}
}

// TestSegConfigNormalization pins the clamping rules: Workers <= 1 runs
// on the calling goroutine only, recorded under the encoding's plan tag
// and traced as bool_ops, never as a pool run.
func TestSegConfigNormalization(t *testing.T) {
	if got := (SegConfig{}).normalized(); got.SegBits != DefaultSegBits {
		t.Fatalf("zero config normalized to %+v", got)
	}
	if got := (SegConfig{SegBits: 2}).normalized(); got.SegBits != MinSegBits {
		t.Fatalf("clamped config normalized to %+v", got)
	}
	ix, err := Build([]uint64{0, 1, 2, 1}, 3, Base{3}, RangeEncoded, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := ix.Eval(Le, 1, nil)
	for _, w := range []int{-3, 0, 1} {
		tr := telemetry.NewTrace("caller-only")
		seg0 := telemetry.SegmentEvalTotal.Value()
		if got := ix.Eval(Le, 1, &EvalOptions{SegConfig: SegConfig{Workers: w}, Trace: tr}); !got.Equal(want) {
			t.Fatalf("Workers=%d: result differs", w)
		}
		if d := telemetry.SegmentEvalTotal.Value() - seg0; d != 0 {
			t.Fatalf("Workers=%d: counted %d pool runs, want 0", w, d)
		}
		for _, ph := range tr.Phases() {
			if ph.Phase == telemetry.PhaseSegments {
				t.Fatalf("Workers=%d: traced a segments phase on a caller-only run", w)
			}
		}
	}
	// A tiny index with more workers than segments must still work.
	if got := ix.Eval(Le, 1, &EvalOptions{SegConfig: SegConfig{Workers: 64}}); !got.Equal(want) {
		t.Fatal("tiny index segmented result differs")
	}
}

// TestSegRegSet pins the register-recycling contract deterministically
// (never asserting pool hits: the runtime may drop pool entries at any
// GC): shape and aliasing on checkout, result-reference clearing on
// return, and full rebuild when the row count changes.
func TestSegRegSet(t *testing.T) {
	const rows = 1 << 10
	shared := bitvec.New(rows)

	rs := getSegRegs(rows, 3, shared)
	if rs.rows != rows || len(rs.regs) != 3 {
		t.Fatalf("checkout shape: rows=%d regs=%d, want %d/3", rs.rows, len(rs.regs), rows)
	}
	if rs.regs[0] != shared {
		t.Fatal("materialize mode must alias register 0 to the shared result")
	}
	for i := 1; i < 3; i++ {
		if rs.regs[i] == nil || rs.regs[i] == shared || rs.regs[i].Len() != rows {
			t.Fatalf("register %d: got %v, want owned scratch of %d rows", i, rs.regs[i], rows)
		}
	}
	regs := rs.regs
	putSegRegs(rs)
	for i, r := range regs {
		if r != nil {
			t.Fatalf("putSegRegs left register %d set; the pool must not retain result references", i)
		}
	}

	// Count mode: no shared vector, register 0 is scratch too.
	rs2 := getSegRegs(rows, 2, nil)
	if rs2.regs[0] == nil || rs2.regs[0].Len() != rows {
		t.Fatal("count mode must provide scratch for register 0")
	}
	putSegRegs(rs2)

	// A row-count change must discard recycled state entirely.
	segRegPool.Put(&segRegSet{rows: rows, vecs: []*bitvec.Vector{bitvec.New(rows)}})
	rs3 := getSegRegs(2*rows, 2, nil)
	if rs3.rows != 2*rows {
		t.Fatalf("rows after mismatched checkout = %d, want %d", rs3.rows, 2*rows)
	}
	for i, r := range rs3.regs {
		if r.Len() != 2*rows {
			t.Fatalf("register %d has %d rows, want %d", i, r.Len(), 2*rows)
		}
	}
	putSegRegs(rs3)

	// Growing the register demand on a recycled set allocates the extras.
	segRegPool.Put(&segRegSet{rows: rows})
	rs4 := getSegRegs(rows, 4, nil)
	if len(rs4.regs) != 4 {
		t.Fatalf("grew to %d registers, want 4", len(rs4.regs))
	}
	for i, r := range rs4.regs {
		if r == nil || r.Len() != rows {
			t.Fatalf("register %d missing after growth", i)
		}
	}
	putSegRegs(rs4)
}
