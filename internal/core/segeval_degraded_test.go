package core

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"bitmapindex/internal/telemetry"
)

// parkSegPool occupies every worker of the shared segment pool with a
// blocking job, so the next non-blocking submit fails. It returns a
// release function that unparks the workers and waits them out.
func parkSegPool(t *testing.T) func() {
	t.Helper()
	release := make(chan struct{})
	var parked sync.WaitGroup
	n := runtime.GOMAXPROCS(0)
	for accepted := 0; accepted < n; {
		parked.Add(1)
		if segPoolSubmit(func() { defer parked.Done(); <-release }) {
			accepted++
		} else {
			// A worker is between jobs and not yet back at the channel
			// receive; give it a beat and retry.
			parked.Done()
			time.Sleep(time.Millisecond)
		}
	}
	return func() {
		close(release)
		parked.Wait()
	}
}

// TestSegmentedEvalPoolSaturatedDegradesToSerial forces the degraded
// submission path audited in PR 9: with every pool worker busy the
// non-blocking submit in segExec.run fails and the calling goroutine drains
// every segment itself. The fallback must not double-count Stats (scans
// are charged once during prefetch, op counts once after the drain) and
// must return the brute-force answer, and the bix_segment_* metrics must
// advance exactly as in the helped path: one eval per call, the worker
// gauge untouched.
func TestSegmentedEvalPoolSaturatedDegradesToSerial(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	n := 3<<14 + 5
	const card = 30
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = uint64(r.Intn(card))
	}
	ix, err := Build(vals, card, Base{6, 5}, RangeEncoded, nil)
	if err != nil {
		t.Fatal(err)
	}

	unpark := parkSegPool(t)
	defer unpark()
	if segPoolSubmit(func() {}) {
		t.Fatal("pool accepted a job with every worker parked")
	}

	evals0 := telemetry.SegmentEvalTotal.Value()
	workers0 := telemetry.SegmentWorkers.Value()
	cfg := SegConfig{SegBits: 12, Workers: 4} // several segments, helpers requested
	calls := int64(0)
	for _, op := range AllOps {
		for _, v := range []uint64{0, 7, card - 1, card + 3} {
			want := referenceEval(vals, nil, op, v)
			var wst Stats
			ix.Eval(op, v, &EvalOptions{Stats: &wst})
			var gst Stats
			got := ix.Eval(op, v, &EvalOptions{SegConfig: cfg, Stats: &gst})
			calls++
			if !got.Equal(want) {
				t.Fatalf("A %s %d: degraded segmented result differs", op, v)
			}
			if gst != wst {
				t.Fatalf("A %s %d: degraded stats %+v, want %+v", op, v, gst, wst)
			}
			var cst Stats
			if c := ix.Count(op, v, &EvalOptions{SegConfig: cfg, Stats: &cst}); c != want.Count() {
				t.Fatalf("A %s %d: degraded pool Count = %d, want %d", op, v, c, want.Count())
			}
			calls++
			if cst != wst {
				t.Fatalf("A %s %d: degraded count stats %+v, want %+v", op, v, cst, wst)
			}
		}
	}
	if d := telemetry.SegmentEvalTotal.Value() - evals0; d != calls {
		t.Fatalf("bix_segment_eval_total advanced by %d over %d degraded calls", d, calls)
	}
	if w := telemetry.SegmentWorkers.Value(); w != workers0 {
		t.Fatalf("bix_segment_workers drifted from %d to %d on the degraded path", workers0, w)
	}
}
