package main

import (
	"slices"
	"sort"
	"time"
)

// The host's speed drifts under the benchmark: on a shared virtual
// machine a fixed piece of work takes up to a third longer for seconds at
// a time, and the program under test slows with it. The timing metrics
// are therefore expressed at reference speed. A fixed kernel owned by the
// benchmark, independent of the program under test, is timed every
// refEvery during the closed loop (and around every setup); each span of
// time between two timings is scaled by refNominal over the kernel's time
// there. A change to the program moves the scaled figures as it moves the
// raw ones, while a slow or fast phase of the host moves both the kernel
// and the program and cancels out.

// refNominal is the kernel's time at reference speed: a scaled figure is
// what the raw one would be on a host where the kernel takes exactly this.
const refNominal = time.Millisecond

// refEvery is how often the closed loop stops to time the kernel.
const refEvery = 50 * time.Millisecond

// refCol and refMatch are the kernel's fixed input: the same on every run
// and every seed.
var (
	refCol   = make([]uint16, 1<<17)
	refMatch [1000]uint64
	refWords = make([]uint64, len(refCol)/64)
	refSink  uint64
)

func init() {
	x := uint32(1)
	for i := range refCol {
		x = x*1664525 + 1013904223
		refCol[i] = uint16(x>>16) % uint16(len(refMatch))
	}
	for v := range refMatch[:len(refMatch)/2] {
		refMatch[v] = 1
	}
}

// refKernel times one pass of the kernel: the brute-force evaluation of
// one predicate over a 2^17-row column into row bitset words, four times,
// the same table-lookup, shift and OR work the benchmark's answer check
// does.
func refKernel() time.Duration {
	t0 := time.Now()
	for rep := 0; rep < 4; rep++ {
		for w := range refWords {
			var word uint64
			for i, v := range refCol[w*64 : w*64+64] {
				word |= refMatch[v] << i
			}
			refWords[w] ^= word
		}
	}
	took := time.Since(t0)
	for _, w := range refWords {
		refSink += w
	}
	return took
}

// refMedian is the median of n kernel timings taken back to back.
func refMedian(n int) time.Duration {
	ts := make([]time.Duration, n)
	for i := range ts {
		ts[i] = refKernel()
	}
	slices.Sort(ts)
	return ts[n/2]
}

// refSample is one kernel timing taken during a closed loop: it started
// at offset at from the loop's start.
type refSample struct {
	at, took time.Duration
}

// speedScale maps the raw time line of one closed loop to reference
// speed. Interval k runs from the end of kernel timing k to the start of
// timing k+1; its scale is refNominal over the kernel's time around it,
// each timing first replaced by the median of itself and its neighbours
// so that one interrupted timing does not skew a span.
type speedScale struct {
	refs  []refSample
	scale []float64 // per interval
}

func newSpeedScale(refs []refSample) *speedScale {
	sm := make([]float64, len(refs))
	for k := range refs {
		var w []float64
		for j := max(k-1, 0); j <= min(k+1, len(refs)-1); j++ {
			w = append(w, float64(refs[j].took))
		}
		slices.Sort(w)
		sm[k] = w[len(w)/2]
		if len(w) == 2 {
			sm[k] = (w[0] + w[1]) / 2
		}
	}
	sc := &speedScale{refs: refs, scale: make([]float64, max(len(refs)-1, 0))}
	for k := range sc.scale {
		sc.scale[k] = float64(refNominal) / ((sm[k] + sm[k+1]) / 2)
	}
	return sc
}

// at returns the scale of the interval holding offset t.
func (sc *speedScale) at(t time.Duration) float64 {
	k := sort.Search(len(sc.refs), func(i int) bool { return sc.refs[i].at > t }) - 1
	return sc.scale[min(max(k, 0), len(sc.scale)-1)]
}

// elapsed is the loop's time at reference speed with the kernel timings
// themselves left out.
func (sc *speedScale) elapsed() time.Duration {
	var total float64
	for k, s := range sc.scale {
		span := sc.refs[k+1].at - (sc.refs[k].at + sc.refs[k].took)
		total += float64(span) * s
	}
	return time.Duration(total)
}

// rawElapsed is the loop's raw time with the kernel timings left out.
func (sc *speedScale) rawElapsed() time.Duration {
	last := sc.refs[len(sc.refs)-1]
	total := last.at
	for _, r := range sc.refs[:len(sc.refs)-1] {
		total -= r.took
	}
	return total
}

// medianRef is the kernel's median time over the loop.
func (sc *speedScale) medianRef() time.Duration {
	ts := make([]time.Duration, len(sc.refs))
	for i, r := range sc.refs {
		ts[i] = r.took
	}
	slices.Sort(ts)
	return ts[len(ts)/2]
}
