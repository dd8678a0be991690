package storage

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"bitmapindex/internal/buffer"
	"bitmapindex/internal/core"
	"bitmapindex/internal/data"
)

func cachedFixture(t *testing.T, capacity int) (*core.Index, *CachedStore) {
	t.Helper()
	col := data.Uniform(3000, 30, 77)
	ix, err := core.Build(col.Values, col.Card, core.Base{6, 5}, core.RangeEncoded, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Save(ix, t.TempDir(), Options{Scheme: BitmapLevel, Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := NewCached(st, capacity)
	if err != nil {
		t.Fatal(err)
	}
	return ix, cs
}

func TestCachedStoreCorrectness(t *testing.T) {
	for _, capacity := range []int{0, 1, 3, 9, 100} {
		ix, cs := cachedFixture(t, capacity)
		for _, op := range core.AllOps {
			for v := uint64(0); v < 31; v++ {
				got, err := cs.Eval(op, v, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(ix.Eval(op, v, nil)) {
					t.Fatalf("capacity %d: A %s %d differs", capacity, op, v)
				}
			}
		}
		if capacity > 0 && cs.Resident() == 0 {
			t.Fatalf("capacity %d: nothing cached", capacity)
		}
		if cs.Resident() > capacity {
			t.Fatalf("capacity %d: %d resident", capacity, cs.Resident())
		}
	}
}

func TestCachedStoreSteadyStateZeroScans(t *testing.T) {
	_, cs := cachedFixture(t, 1000) // bigger than the whole index
	warm := func() core.Stats {
		var m Metrics
		for _, op := range core.AllOps {
			for v := uint64(0); v < 30; v++ {
				if _, err := cs.Eval(op, v, &m); err != nil {
					t.Fatal(err)
				}
			}
		}
		return m.Stats
	}
	warm()
	second := warm()
	if second.Scans != 0 {
		t.Fatalf("steady state still scanned %d bitmaps", second.Scans)
	}
	if cs.HitRate() < 0.5 {
		t.Fatalf("hit rate %.2f too low after warmup", cs.HitRate())
	}
}

func TestCachedStoreZeroCapacityMatchesUncached(t *testing.T) {
	_, cs := cachedFixture(t, 0)
	var cm, um Metrics
	for v := uint64(0); v < 30; v++ {
		if _, err := cs.Eval(core.Le, v, &cm); err != nil {
			t.Fatal(err)
		}
		if _, err := cs.Store().Eval(core.Le, v, &um); err != nil {
			t.Fatal(err)
		}
	}
	if cm.Stats.Scans != um.Stats.Scans {
		t.Fatalf("zero-capacity cache changed scan counts: %d vs %d", cm.Stats.Scans, um.Stats.Scans)
	}
	if cs.HitRate() != 0 {
		t.Fatalf("zero-capacity hit rate %.2f", cs.HitRate())
	}
}

// TestCachedScansTrackBufferModel: with an LRU pool of m bitmaps under the
// uniform query mix, the measured steady-state scans per query should be
// in the ballpark of the paper's eq. (5) with the optimal m-bitmap static
// assignment (LRU approximates it from behind).
func TestCachedScansTrackBufferModel(t *testing.T) {
	base := core.Base{6, 5}
	card, _ := base.Product()
	col := data.Uniform(2000, card, 78)
	ix, err := core.Build(col.Values, card, base, core.RangeEncoded, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Save(ix, t.TempDir(), Options{Scheme: BitmapLevel})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{2, 4, 6} {
		cs, err := NewCached(st, m)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(int64(m)))
		run := func(queries int) float64 {
			var met Metrics
			for k := 0; k < queries; k++ {
				op := core.AllOps[r.Intn(6)]
				v := uint64(r.Intn(int(card)))
				if _, err := cs.Eval(op, v, &met); err != nil {
					t.Fatal(err)
				}
			}
			return float64(met.Stats.Scans) / float64(queries)
		}
		run(200) // warm up
		measured := run(2000)
		model := buffer.Time(base, card, buffer.Optimal(base, card, m))
		unbuffered := buffer.Time(base, card, nil)
		if measured > unbuffered+0.05 {
			t.Fatalf("m=%d: cached scans %.3f worse than unbuffered %.3f", m, measured, unbuffered)
		}
		// LRU cannot beat the optimal static assignment by much, nor lag
		// it wildly; allow a generous band.
		if measured < model-0.75 || measured > model+1.0 {
			t.Errorf("m=%d: measured %.3f far from eq.(5) optimal %.3f", m, measured, model)
		}
	}
}

func TestCachedStoreConcurrent(t *testing.T) {
	ix, cs := cachedFixture(t, 4)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for k := 0; k < 60; k++ {
				op := core.AllOps[r.Intn(6)]
				v := uint64(r.Intn(31))
				got, err := cs.Eval(op, v, nil)
				if err != nil {
					errs <- err
					return
				}
				if !got.Equal(ix.Eval(op, v, nil)) {
					errs <- fmt.Errorf("goroutine %d: cached A %s %d differs from in-memory Eval", g, op, v)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestNewCachedErrors(t *testing.T) {
	_, cs := cachedFixture(t, 1)
	if _, err := NewCached(cs.Store(), -1); err == nil {
		t.Fatal("negative capacity must fail")
	}
}

// TestCachedStoreHitMissCounters: the raw Hits/Misses counters are
// consistent with HitRate, start at zero, and misses bound the resident
// set (every resident bitmap was missed into the cache once).
func TestCachedStoreHitMissCounters(t *testing.T) {
	_, cs := cachedFixture(t, 1000)
	if cs.Hits() != 0 || cs.Misses() != 0 {
		t.Fatalf("fresh cache has hits=%d misses=%d", cs.Hits(), cs.Misses())
	}
	run := func() {
		for _, op := range core.AllOps {
			for v := uint64(0); v < 30; v++ {
				if _, err := cs.Eval(op, v, nil); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	run()
	h1, m1 := cs.Hits(), cs.Misses()
	if m1 == 0 {
		t.Fatal("first pass recorded no misses")
	}
	if int(m1) < cs.Resident() {
		t.Fatalf("misses %d < resident %d: every resident bitmap must have missed once", m1, cs.Resident())
	}
	run()
	h2, m2 := cs.Hits(), cs.Misses()
	if m2 != m1 {
		t.Errorf("warm pass added %d misses with an oversized cache", m2-m1)
	}
	if h2 <= h1 {
		t.Errorf("warm pass added no hits (%d -> %d)", h1, h2)
	}
	if want := float64(h2) / float64(h2+m2); cs.HitRate() != want {
		t.Errorf("HitRate = %v, want %v from raw counters", cs.HitRate(), want)
	}
}
