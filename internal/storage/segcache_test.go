package storage

import (
	"math/rand"
	"sync"
	"testing"

	"bitmapindex/internal/bitvec"
	"bitmapindex/internal/core"
	"bitmapindex/internal/data"
	"bitmapindex/internal/telemetry"
)

// evict removes one bitmap from the pool directly; tests use it (via
// fetchHook) to force evictions between touches of the same query.
func (c *CachedStore) evict(comp, slot int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := cacheKey{comp, slot}
	if el, ok := c.byKey[key]; ok {
		delete(c.byKey, key)
		c.lru.Remove(el)
	}
}

// TestCacheEvictedMidQueryCountsMiss is the regression test for the
// evicted-mid-query undercount: a bitmap seen resident at first touch but
// evicted before a second touch within the same query must count the
// refetch as a miss, since it really goes back to disk.
//
// The evaluator touches each bitmap of a query twice: its Buffered probe
// (which decides whether the read is a scan) and then its Fetch. On the
// base <2,2> equality index A < 3 reads E_1^1 and one more bitmap;
// evicting E_1^1 from the fetch hook, after the probe saw it resident,
// exercises exactly that path.
func TestCacheEvictedMidQueryCountsMiss(t *testing.T) {
	vals := []uint64{0, 1, 2, 3, 1, 2, 0, 3, 2, 1}
	ix, err := core.Build(vals, 4, core.Base{2, 2}, core.EqualityEncoded, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Save(ix, t.TempDir(), Options{Scheme: BitmapLevel})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := NewCached(st, 100)
	if err != nil {
		t.Fatal(err)
	}
	want := ix.Eval(core.Lt, 3, nil)

	// Warm pass: both stored bitmaps of the query miss into the pool.
	got, err := cs.Eval(core.Lt, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("warm pass result differs from in-memory eval")
	}
	h0, m0 := cs.Hits(), cs.Misses()

	// Second pass: evict (1,0) between its residency probe and its fetch.
	calls := 0
	cs.fetchHook = func(comp, slot int) {
		if comp == 1 && slot == 0 {
			calls++
			cs.evict(1, 0)
		}
	}
	defer func() { cs.fetchHook = nil }()
	got, err = cs.Eval(core.Lt, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("post-eviction result differs from in-memory eval")
	}
	if calls != 1 {
		t.Fatalf("E_1^1 fetched %d times, want 1 (query shape changed?)", calls)
	}
	if hits := cs.Hits() - h0; hits != 2 {
		t.Errorf("second pass hits = %d, want 2", hits)
	}
	if misses := cs.Misses() - m0; misses != 1 {
		t.Errorf("second pass misses = %d, want 1 (evicted-mid-query refetch)", misses)
	}
}

// TestCacheResidentGaugeConsistent pins the bix_cache_resident_bitmaps
// gauge to lru.Len() across every insert path: normal inserts with
// evictions, duplicate keys, and capacity 0.
func TestCacheResidentGaugeConsistent(t *testing.T) {
	check := func(t *testing.T, cs *CachedStore) {
		t.Helper()
		if g, r := telemetry.CacheResident.Value(), int64(cs.Resident()); g != r {
			t.Fatalf("gauge %d != resident %d", g, r)
		}
	}
	_, cs := cachedFixture(t, 3)
	for v := uint64(0); v < 30; v++ {
		if _, err := cs.Eval(core.Le, v, nil); err != nil {
			t.Fatal(err)
		}
		check(t, cs)
	}
	// Duplicate-key insert: re-inserting a resident bitmap must leave the
	// gauge at lru.Len() rather than skipping the update.
	var key cacheKey
	cs.mu.Lock()
	key = cs.lru.Front().Value.(cacheEntry).key
	v := cs.lru.Front().Value.(cacheEntry).v
	cs.mu.Unlock()
	telemetry.CacheResident.Set(-1) // poison; insert must restore it
	cs.insert(key.comp, key.slot, v)
	check(t, cs)

	// Capacity 0: nothing is ever resident and the gauge must say so.
	_, cs0 := cachedFixture(t, 0)
	telemetry.CacheResident.Set(-1)
	if _, err := cs0.Eval(core.Le, 3, nil); err != nil {
		t.Fatal(err)
	}
	check(t, cs0)
}

// TestCachedStoreSegmentedRace hammers one shared CachedStore from
// concurrent Eval clients and checks every result against precomputed
// expectations. Run under -race (CI does) this pins the concurrency
// contract of the pool: per-query callbacks are private to their query,
// while lookups, inserts and evictions share the pool mutex.
func TestCachedStoreSegmentedRace(t *testing.T) {
	const card = 30
	col := data.Uniform(30000, card, 79)
	ix, err := core.Build(col.Values, col.Card, core.Base{6, 5}, core.RangeEncoded, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Save(ix, t.TempDir(), Options{Scheme: BitmapLevel, Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := NewCached(st, 5)
	if err != nil {
		t.Fatal(err)
	}
	type pred struct {
		Op core.Op
		V  uint64
	}
	want := make(map[pred]*bitvec.Vector)
	var queries []pred
	for _, op := range core.AllOps {
		for v := uint64(0); v < card; v += 4 {
			q := pred{Op: op, V: v}
			queries = append(queries, q)
			want[q] = ix.Eval(op, v, nil)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for k := 0; k < 40; k++ {
				q := queries[r.Intn(len(queries))]
				got, err := cs.Eval(q.Op, q.V, nil)
				if err != nil {
					errs <- err.Error()
					return
				}
				if !got.Equal(want[q]) {
					errs <- "result differs under concurrency"
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
