package bitvec

import (
	"math/rand"
	"testing"
)

// restricted applies the full-vector operation and then splices the window
// back into a copy of the original, producing the reference result for a
// range kernel: outside [lo,hi) the vector must be untouched.
func restricted(orig, full *Vector, lo, hi int) *Vector {
	want := orig.Clone()
	copy(want.words[lo:hi], full.words[lo:hi])
	return want
}

func TestRangeKernelsMatchFullOps(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 1000, 4096} {
		v0 := randomVec(r, n)
		u := randomVec(r, n)
		nw := v0.NumWords()
		windows := [][2]int{{0, nw}, {0, nw / 2}, {nw / 2, nw}, {nw / 3, 2 * nw / 3}, {0, 0}, {nw, nw}}
		for _, w := range windows {
			lo, hi := w[0], w[1]
			type kernel struct {
				name string
				rng  func(v *Vector)
				full func(v *Vector)
			}
			kernels := []kernel{
				{"AndRange", func(v *Vector) { v.AndRange(u, lo, hi) }, func(v *Vector) { v.And(u) }},
				{"OrRange", func(v *Vector) { v.OrRange(u, lo, hi) }, func(v *Vector) { v.Or(u) }},
				{"XorRange", func(v *Vector) { v.XorRange(u, lo, hi) }, func(v *Vector) { v.Xor(u) }},
				{"AndNotRange", func(v *Vector) { v.AndNotRange(u, lo, hi) }, func(v *Vector) { v.AndNot(u) }},
				{"NotRange", func(v *Vector) { v.NotRange(lo, hi) }, func(v *Vector) { v.Not() }},
				{"CopyRange", func(v *Vector) { v.CopyRange(u, lo, hi) }, func(v *Vector) { v.CopyFrom(u) }},
				{"ZeroRange", func(v *Vector) { v.ZeroRange(lo, hi) }, func(v *Vector) { v.ClearAll() }},
				{"OnesRange", func(v *Vector) { v.OnesRange(lo, hi) }, func(v *Vector) { v.SetAll() }},
			}
			for _, k := range kernels {
				got := v0.Clone()
				k.rng(got)
				full := v0.Clone()
				k.full(full)
				want := restricted(v0, full, lo, hi)
				if !got.Equal(want) {
					t.Fatalf("n=%d window=[%d,%d) %s mismatch", n, lo, hi, k.name)
				}
				// Kernels touching the true last word must preserve the tail
				// invariant; verify explicitly (Equal alone would pass if both
				// sides had stray tail bits).
				if last := got.n % 64; last != 0 && len(got.words) > 0 {
					tail := got.words[len(got.words)-1]
					if tail&^((uint64(1)<<uint(last))-1) != 0 {
						t.Fatalf("n=%d window=[%d,%d) %s violates tail invariant: %#x", n, lo, hi, k.name, tail)
					}
				}
			}
			if got, want := v0.CountRange(lo, hi), countWindow(v0, lo, hi); got != want {
				t.Fatalf("n=%d window=[%d,%d) CountRange = %d, want %d", n, lo, hi, got, want)
			}
		}
	}
}

func countWindow(v *Vector, lo, hi int) int {
	c := 0
	for i := lo * wordBits; i < hi*wordBits && i < v.n; i++ {
		if v.Get(i) {
			c++
		}
	}
	return c
}

// TestNotRangeInteriorDoesNotMask pins the "true last word only" contract:
// complementing an interior window must not mask anything (the window's last
// word is a full word), while a window ending at the final word must mask.
func TestNotRangeInteriorDoesNotMask(t *testing.T) {
	v := New(130) // 3 words, 2 valid bits in the last
	nw := v.NumWords()
	v.NotRange(0, nw-1)
	for i := 0; i < 128; i++ {
		if !v.Get(i) {
			t.Fatalf("bit %d not set after interior NotRange", i)
		}
	}
	v.NotRange(nw-1, nw)
	if v.Count() != 130 {
		t.Fatalf("Count = %d, want 130 (tail must be masked)", v.Count())
	}
	if w := v.Words()[nw-1]; w != 3 {
		t.Fatalf("last word = %#x, want 0x3", w)
	}
}

func TestRangeKernelPanics(t *testing.T) {
	v, u := New(100), New(100)
	short := New(99)
	cases := []struct {
		name string
		fn   func()
	}{
		{"negative lo", func() { v.AndRange(u, -1, 1) }},
		{"hi past end", func() { v.OrRange(u, 0, v.NumWords()+1) }},
		{"hi < lo", func() { v.NotRange(2, 1) }},
		{"length mismatch", func() { v.XorRange(short, 0, 1) }},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", c.name)
				}
			}()
			c.fn()
		}()
	}
}

func TestSetPayloadRejectsOversized(t *testing.T) {
	var v Vector
	if err := v.SetPayload(9, []byte{0xFF, 0x01, 0xAA}); err == nil {
		t.Fatal("SetPayload accepted a payload with trailing garbage")
	}
	if err := v.SetPayload(0, []byte{0x00}); err == nil {
		t.Fatal("SetPayload accepted a 1-byte payload for an empty vector")
	}
	if err := v.SetPayload(0, nil); err != nil {
		t.Fatalf("SetPayload rejected the empty payload for an empty vector: %v", err)
	}
}
