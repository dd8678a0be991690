package core

import (
	"fmt"

	"bitmapindex/internal/invariant"
)

// segprog.go — the predicate compiler.
//
// A segProgram is the bitmap-combination plan of one selection predicate:
// a straight-line register program over the index's stored bitmaps. It is
// the only form in which this package evaluates a predicate: segeval.go
// resolves the program's refs once and replays it over word windows of
// the row space with the range-restricted bitvec kernels. Every emitted
// AND/OR/XOR/NOT is one of the paper's counted bitmap operations, so the
// program carries a query's operation counts, and its distinct value-bitmap
// refs are the query's bitmap scans.
//
// There are two compilers into this IR: compileProgram (RangeEval-Opt on
// range-encoded indexes, the equality-encoded and interval-encoded
// evaluators otherwise) and compileRangeNaive, the paper's RangeEval
// baseline.

// Instruction kinds. sLoad/sZero/sOnes initialize a register and are not
// counted as bitmap operations; the rest are the counted operations.
const (
	sLoad   uint8 = iota // reg[dst] = src
	sZero                // reg[dst] = 0
	sOnes                // reg[dst] = all ones
	sAnd                 // reg[dst] &= src
	sOr                  // reg[dst] |= src
	sXor                 // reg[dst] ^= src
	sAndNot              // reg[dst] &^= src
	sNot                 // reg[dst] = ^reg[dst]
)

// segOperand is an instruction source: a fetched bitmap (ref >= 0, an
// index into segProgram.refs) or a register (reg >= 0). Exactly one is
// set; the other is -1.
type segOperand struct {
	ref int
	reg int
}

func noOperand() segOperand     { return segOperand{ref: -1, reg: -1} }
func refOp(i int) segOperand    { return segOperand{ref: i, reg: -1} }
func regOp(r segreg) segOperand { return segOperand{ref: -1, reg: int(r)} }

type segInstr struct {
	kind uint8
	dst  int // destination register
	src  segOperand
}

// segRef identifies one input bitmap of the program. comp == -1 is the
// non-null bitmap B_nn, which is always in memory and never counted as a
// scan: the paper's scan counts are over the value bitmaps.
type segRef struct{ comp, slot int }

// segProgram is one compiled predicate. The result is always register 0
// (every compiler allocates the result register first; seal asserts it).
type segProgram struct {
	instrs []segInstr
	nregs  int
	refs   []segRef
	ops    Stats // logical operation counts; Scans stays 0 (counted from refs)
}

// scans returns the number of bitmap scans the program performs without a
// buffer: its distinct value-bitmap refs.
func (p *segProgram) scans() int {
	n := 0
	for _, rf := range p.refs {
		if rf.comp >= 0 {
			n++
		}
	}
	return n
}

// segreg is a virtual register index within a segProgram.
type segreg int

// progShape is everything compilation reads about an index: scan and
// operation counts depend only on it and the predicate, never on the data.
type progShape struct {
	base  Base
	enc   Encoding
	card  uint64
	nulls bool // B_nn masking needed
}

func (ix *Index) shape() progShape {
	return progShape{base: ix.base, enc: ix.enc, card: ix.card, nulls: ix.hasNulls}
}

// PredicateScans returns the number of stored bitmaps the evaluator reads
// for (A op v) on an index with the given base, encoding and cardinality:
// the distinct value-bitmap refs of the compiled predicate. It builds no
// index and publishes no telemetry, so cost models can ask it for every
// predicate of a design they are only considering.
func PredicateScans(base Base, enc Encoding, card uint64, op Op, v uint64) int {
	if err := base.Validate(card); err != nil {
		panic(err.Error())
	}
	return compileProgram(progShape{base: base, enc: enc, card: card}, op, v).scans()
}

// progBuilder compiles a predicate into a segProgram.
type progBuilder struct {
	progShape
	p      *segProgram
	refIdx map[segRef]int
	free   []segreg
}

func newProgBuilder(s progShape) progBuilder {
	n := len(s.base)
	return progBuilder{progShape: s, refIdx: make(map[segRef]int, 2*n+1), p: &segProgram{
		instrs: make([]segInstr, 0, 4*n+4),
		refs:   make([]segRef, 0, 2*n+1),
	}}
}

// fetch interns the stored bitmap (comp, slot) and returns it as an
// operand, so a bitmap read twice by one predicate is one ref and one scan.
func (b *progBuilder) fetch(comp, slot int) segOperand {
	key := segRef{comp: comp, slot: slot}
	i, ok := b.refIdx[key]
	if !ok {
		i = len(b.p.refs)
		b.refIdx[key] = i
		b.p.refs = append(b.p.refs, key)
	}
	return refOp(i)
}

// nnOp returns the non-null bitmap as an operand (not a scan).
func (b *progBuilder) nnOp() segOperand { return b.fetch(-1, 0) }

func (b *progBuilder) alloc() segreg {
	if n := len(b.free); n > 0 {
		r := b.free[n-1]
		b.free = b.free[:n-1]
		return r
	}
	r := segreg(b.p.nregs)
	b.p.nregs++
	return r
}

// release returns a dead temporary to the free list so register count (and
// with it per-worker scratch memory) stays bounded by live values, not by
// component count.
func (b *progBuilder) release(r segreg) { b.free = append(b.free, r) }

// emit appends one instruction and accounts it in the paper's operation
// inventory: and, or, xor, not count as themselves; andNot counts as one
// AND plus one NOT; load/zero/ones are uncounted.
func (b *progBuilder) emit(kind uint8, dst segreg, src segOperand) {
	b.p.instrs = append(b.p.instrs, segInstr{kind: kind, dst: int(dst), src: src})
	switch kind {
	case sAnd:
		b.p.ops.Ands++
	case sOr:
		b.p.ops.Ors++
	case sXor:
		b.p.ops.Xors++
	case sNot:
		b.p.ops.Nots++
	case sAndNot:
		b.p.ops.Ands++
		b.p.ops.Nots++
	}
}

func (b *progBuilder) cloneInto(src segOperand) segreg {
	r := b.alloc()
	b.emit(sLoad, r, src)
	return r
}

func (b *progBuilder) zeros() segreg {
	r := b.alloc()
	b.emit(sZero, r, noOperand())
	return r
}

func (b *progBuilder) ones() segreg {
	r := b.alloc()
	b.emit(sOnes, r, noOperand())
	return r
}

func (b *progBuilder) nonNull() segreg { return b.cloneInto(b.nnOp()) }

func (b *progBuilder) and(dst segreg, src segOperand)    { b.emit(sAnd, dst, src) }
func (b *progBuilder) or(dst segreg, src segOperand)     { b.emit(sOr, dst, src) }
func (b *progBuilder) xor(dst segreg, src segOperand)    { b.emit(sXor, dst, src) }
func (b *progBuilder) andNot(dst segreg, src segOperand) { b.emit(sAndNot, dst, src) }
func (b *progBuilder) not(dst segreg)                    { b.emit(sNot, dst, noOperand()) }

// maskNN AND-masks a result that may contain null rows (a complement, or
// an OR of stored bitmaps that started from all-ones): one counted AND
// with B_nn, only on nullable indexes.
func (b *progBuilder) maskNN(r segreg) {
	if b.nulls {
		b.and(r, b.nnOp())
	}
}

// seal asserts the compiler left the result in register 0, which the
// interpreter aliases to the (shared) result vector.
func (b *progBuilder) seal(r segreg) {
	if r != 0 {
		panic(fmt.Sprintf("core: segment program result in register %d, want 0", r))
	}
}

// trivial compiles a predicate constant outside [0, C): the answer is all
// non-null rows or none, reading no value bitmap and counting no
// operation. It reports false when the predicate needs real evaluation.
func (b *progBuilder) trivial(op Op, v uint64) bool {
	if v < b.card {
		return false
	}
	switch op {
	case Lt, Le, Ne:
		b.seal(b.nonNull())
	default: // Gt, Ge, Eq
		b.seal(b.zeros())
	}
	return true
}

// compileProgram builds the program that evaluates (A op v) on an index of
// shape s: RangeEval-Opt on range-encoded indexes, the equality and
// interval evaluators on the other encodings.
func compileProgram(s progShape, op Op, v uint64) *segProgram {
	b := newProgBuilder(s)
	if b.trivial(op, v) {
		return b.p
	}
	switch s.enc {
	case RangeEncoded:
		b.seal(b.compileRangeOpt(op, v))
	case EqualityEncoded:
		b.seal(b.compileEquality(op, v))
	case IntervalEncoded:
		b.seal(b.compileInterval(op, v))
	default:
		panic("core: unknown encoding")
	}
	return b.p
}

// compileRangeOpt compiles the paper's improved Algorithm RangeEval-Opt
// (Section 3, Figure 6 right) for a range-encoded index.
//
// Range predicates are rewritten in terms of <= using the identities
// A < v == A <= v-1, A > v == NOT(A <= v), A >= v == NOT(A <= v-1), so a
// single bitmap B is maintained instead of the B_EQ/B_LT/B_GT triple of
// Algorithm RangeEval. Component 1 initializes B directly; each further
// component i contributes at most one AND (with B_i^{v_i}, skipped when
// v_i = b_i - 1, whose bitmap is the implicit all-ones) and one OR (with
// B_i^{v_i - 1}, skipped when v_i = 0).
func (b *progBuilder) compileRangeOpt(op Op, v uint64) segreg {
	if !op.IsRange() {
		B := b.compileRangeEqChain(v)
		if op == Ne {
			b.not(B)
		}
		b.maskNN(B)
		return B
	}
	neg := op == Gt || op == Ge
	w := v
	underflow := false
	if op == Lt || op == Ge {
		if v == 0 {
			underflow = true // A <= -1: empty
		} else {
			w = v - 1
		}
	}
	var B segreg
	if underflow {
		B = b.zeros()
	} else {
		digits := b.base.Decompose(w, nil)
		invariant.DigitsInBase(digits, b.base)
		if digits[0] < b.base[0]-1 {
			B = b.cloneInto(b.fetch(0, int(digits[0])))
		} else {
			B = b.ones()
		}
		for i := 1; i < len(b.base); i++ {
			bi, di := b.base[i], digits[i]
			if di != bi-1 {
				b.and(B, b.fetch(i, int(di)))
			}
			if di != 0 {
				b.or(B, b.fetch(i, int(di-1)))
			}
		}
	}
	if neg {
		b.not(B)
	}
	b.maskNN(B)
	return B
}

// compileRangeEqChain computes the equality bitmap (A = v) on a
// range-encoded index: per component, digit equality is B_i^{v_i} XOR
// B_i^{v_i-1} (degenerating to a single bitmap or its complement at the
// digit extremes).
func (b *progBuilder) compileRangeEqChain(v uint64) segreg {
	digits := b.base.Decompose(v, nil)
	invariant.DigitsInBase(digits, b.base)
	B := b.ones()
	for i, bi := range b.base {
		di := digits[i]
		switch {
		case di == 0:
			b.and(B, b.fetch(i, 0))
		case di == bi-1:
			t := b.cloneInto(b.fetch(i, int(bi-2)))
			b.not(t)
			b.and(B, regOp(t))
			b.release(t)
		default:
			t := b.cloneInto(b.fetch(i, int(di)))
			b.xor(t, b.fetch(i, int(di-1)))
			b.and(B, regOp(t))
			b.release(t)
		}
	}
	return B
}

// compileRangeNaive compiles Algorithm RangeEval, the O'Neil-Quass
// evaluation strategy the paper improves upon (Section 3, Figure 6 left).
// It incrementally maintains the equality bitmap B_EQ together with B_LT
// or B_GT as required by the operator.
func compileRangeNaive(s progShape, op Op, v uint64) *segProgram {
	b := newProgBuilder(s)
	if b.trivial(op, v) {
		return b.p
	}
	needLT := op == Lt || op == Le
	needGT := op == Gt || op == Ge

	// The result register is allocated first: B_LT or B_GT for a range
	// operator, B_EQ for an equality operator.
	var BLT, BGT segreg
	if needLT {
		BLT = b.zeros()
	}
	if needGT {
		BGT = b.zeros()
	}
	BEQ := b.nonNull()
	digits := b.base.Decompose(v, nil)
	invariant.DigitsInBase(digits, b.base)
	// gt ORs (NOT B_i^j AND B_EQ) into B_GT.
	gt := func(i, j int) {
		t := b.cloneInto(b.fetch(i, j))
		b.not(t)
		b.and(t, regOp(BEQ))
		b.or(BGT, regOp(t))
		b.release(t)
	}
	for i := len(b.base) - 1; i >= 0; i-- {
		bi, di := b.base[i], digits[i]
		if di == 0 {
			if needGT {
				gt(i, 0)
			}
			b.and(BEQ, b.fetch(i, 0))
			continue
		}
		if needLT {
			t := b.cloneInto(regOp(BEQ))
			b.and(t, b.fetch(i, int(di-1)))
			b.or(BLT, regOp(t))
			b.release(t)
		}
		var t segreg
		if di < bi-1 {
			if needGT {
				gt(i, int(di))
			}
			t = b.cloneInto(b.fetch(i, int(di)))
			b.xor(t, b.fetch(i, int(di-1)))
		} else {
			t = b.cloneInto(b.fetch(i, int(bi-2)))
			b.not(t)
		}
		b.and(BEQ, regOp(t))
		b.release(t)
	}
	switch op {
	case Eq:
		b.seal(BEQ)
	case Ne:
		b.not(BEQ)
		b.maskNN(BEQ)
		b.seal(BEQ)
	case Lt:
		b.seal(BLT)
	case Le:
		b.or(BLT, regOp(BEQ))
		b.seal(BLT)
	case Gt:
		b.seal(BGT)
	default: // Ge
		b.or(BGT, regOp(BEQ))
		b.seal(BGT)
	}
	return b.p
}

// compileEquality compiles (A op v) for an equality-encoded index. The
// paper uses (but does not print) an equality-encoding evaluator; this one
// follows the paper's stated cost behaviour: an equality predicate reads
// one bitmap per component, while a range predicate reads between two and
// half the bitmaps of each component, choosing per component whichever of
// the two directions (OR of low digit bitmaps vs complement of the OR of
// high digit bitmaps) needs fewer bitmap scans.
func (b *progBuilder) compileEquality(op Op, v uint64) segreg {
	switch op {
	case Eq:
		return b.compileEqEQ(v)
	case Ne:
		B := b.compileEqEQ(v)
		b.not(B)
		b.maskNN(B)
		return B
	case Lt:
		if v == 0 {
			return b.zeros()
		}
		return b.compileEqLT(v)
	case Ge:
		if v == 0 {
			return b.nonNull()
		}
		B := b.compileEqLT(v)
		b.not(B)
		b.maskNN(B)
		return B
	case Le:
		if v >= b.card-1 {
			return b.nonNull()
		}
		return b.compileEqLT(v + 1)
	default: // Gt
		if v >= b.card-1 {
			return b.zeros()
		}
		B := b.compileEqLT(v + 1)
		b.not(B)
		b.maskNN(B)
		return B
	}
}

// compileEqBitmap returns the digit-equality bitmap E_i^j. For base-2
// components only E_i^1 is stored; E_i^0 is derived as B_nn AND NOT E_i^1
// (one scan). When derived the operand is a fresh register the caller must
// release (or adopt as its accumulator).
func (b *progBuilder) compileEqBitmap(i int, j uint64) (op segOperand, t segreg, derived bool) {
	if b.base[i] == 2 {
		stored := b.fetch(i, 0) // E_i^1
		if j == 1 {
			return stored, 0, false
		}
		t = b.nonNull()
		b.andNot(t, stored)
		return regOp(t), t, true
	}
	return b.fetch(i, int(j)), 0, false
}

// compileEqEQ computes the equality bitmap (A = v): the AND over
// components of E_i^{v_i}, one scan per component.
func (b *progBuilder) compileEqEQ(v uint64) segreg {
	digits := b.base.Decompose(v, nil)
	invariant.DigitsInBase(digits, b.base)
	B := segreg(-1)
	for i := range b.base {
		e, t, derived := b.compileEqBitmap(i, digits[i])
		if B < 0 {
			if derived {
				B = t
			} else {
				B = b.cloneInto(e)
			}
			continue
		}
		b.and(B, e)
		if derived {
			b.release(t)
		}
	}
	return B
}

// compileEqLT computes (A < v) for 1 <= v <= C using the standard
// most-significant-first expansion: A < v iff for some component i, the
// digits above i equal v's and digit_i < v_i. The prefix-equality bitmap P
// starts from B_nn so null records never qualify even when a per-digit
// comparison is computed by complement.
func (b *progBuilder) compileEqLT(v uint64) segreg {
	digits := b.base.Decompose(v, nil)
	invariant.DigitsInBase(digits, b.base)
	R := b.zeros()
	P := b.nonNull()
	for i := len(b.base) - 1; i >= 0; i-- {
		di := digits[i]
		if di > 0 {
			lt := b.compileEqLTDigit(i, di)
			b.and(lt, regOp(P))
			b.or(R, regOp(lt))
			b.release(lt)
		}
		if i > 0 {
			e, t, derived := b.compileEqBitmap(i, di)
			b.and(P, e)
			if derived {
				b.release(t)
			}
		}
	}
	b.release(P)
	return R
}

// compileEqLTDigit returns a fresh register of records whose i-th digit is
// < d, 1 <= d <= b_i - 1. It reads min(d, b_i - d) stored bitmaps: either
// the OR of E_i^0..E_i^{d-1}, or the complement of the OR of
// E_i^d..E_i^{b_i-1}. The complement direction may include null rows;
// callers AND the result with a null-free prefix bitmap.
func (b *progBuilder) compileEqLTDigit(i int, d uint64) segreg {
	bi := b.base[i]
	if bi == 2 {
		// Only d = 1 is possible: digit < 1 means digit = 0.
		e, t, derived := b.compileEqBitmap(i, 0)
		if derived {
			return t
		}
		return b.cloneInto(e)
	}
	if d <= bi-d {
		// Forward: OR of the d low digit bitmaps.
		acc := b.cloneInto(b.fetch(i, 0))
		for j := uint64(1); j < d; j++ {
			b.or(acc, b.fetch(i, int(j)))
		}
		return acc
	}
	// Backward: complement of the OR of the b_i - d high digit bitmaps.
	acc := b.cloneInto(b.fetch(i, int(d)))
	for j := d + 1; j < bi; j++ {
		b.or(acc, b.fetch(i, int(j)))
	}
	b.not(acc)
	return acc
}

// compileInterval compiles (A op v) for an interval-encoded index (see
// intervaleval.go for the window identities it relies on).
func (b *progBuilder) compileInterval(op Op, v uint64) segreg {
	switch op {
	case Eq:
		B := b.compileIvEQChain(v)
		b.maskNN(B)
		return B
	case Ne:
		B := b.compileIvEQChain(v)
		b.not(B)
		b.maskNN(B)
		return B
	case Lt:
		if v == 0 {
			return b.zeros()
		}
		return b.compileIvLT(v)
	case Ge:
		if v == 0 {
			return b.nonNull()
		}
		B := b.compileIvLT(v)
		b.not(B)
		b.maskNN(B)
		return B
	case Le:
		if v >= b.card-1 {
			return b.nonNull()
		}
		return b.compileIvLT(v + 1)
	default: // Gt
		if v >= b.card-1 {
			return b.zeros()
		}
		B := b.compileIvLT(v + 1)
		b.not(B)
		b.maskNN(B)
		return B
	}
}

// compileIvEQDigit returns a fresh register of records whose i-th digit
// equals d. Complement cases may include null rows; callers AND the result
// with a null-free prefix (or mask with B_nn at the end).
func (b *progBuilder) compileIvEQDigit(i int, d uint64) segreg {
	bi := b.base[i]
	m := uint64(ivWindows(bi))
	switch {
	case d < m-1:
		t := b.cloneInto(b.fetch(i, int(d)))
		b.andNot(t, b.fetch(i, int(d+1)))
		return t
	case d == m-1:
		t := b.cloneInto(b.fetch(i, int(m-1)))
		if m > 1 {
			b.and(t, b.fetch(i, 0))
		}
		return t
	case d <= 2*m-2:
		t := b.cloneInto(b.fetch(i, int(d-m+1)))
		b.andNot(t, b.fetch(i, int(d-m)))
		return t
	default: // d == 2m-1: the one digit outside every window (even b)
		t := b.cloneInto(b.fetch(i, 0))
		if m > 1 {
			b.or(t, b.fetch(i, int(m-1)))
		}
		b.not(t)
		return t
	}
}

// compileIvLEDigit returns a fresh register of records whose i-th digit is
// <= w, for 0 <= w <= b_i-2 (w = b_i-1 is the implicit all-ones).
func (b *progBuilder) compileIvLEDigit(i int, w uint64) segreg {
	bi := b.base[i]
	m := uint64(ivWindows(bi))
	switch {
	case w < m-1:
		t := b.cloneInto(b.fetch(i, 0))
		b.andNot(t, b.fetch(i, int(w+1)))
		return t
	case w == m-1:
		return b.cloneInto(b.fetch(i, 0))
	default: // m <= w <= 2m-2, always within range since w <= b-2
		t := b.cloneInto(b.fetch(i, 0))
		b.or(t, b.fetch(i, int(w-m+1)))
		return t
	}
}

// compileIvEQChain computes (A = v) as the AND over components of digit
// equality.
func (b *progBuilder) compileIvEQChain(v uint64) segreg {
	digits := b.base.Decompose(v, nil)
	B := segreg(-1)
	for i := range b.base {
		e := b.compileIvEQDigit(i, digits[i])
		if B < 0 {
			B = e
			continue
		}
		b.and(B, regOp(e))
		b.release(e)
	}
	return B
}

// compileIvLT computes (A < v) for 1 <= v <= C with the same
// most-significant-first expansion as compileEqLT, built from interval
// digit primitives.
func (b *progBuilder) compileIvLT(v uint64) segreg {
	digits := b.base.Decompose(v, nil)
	R := b.zeros()
	P := b.nonNull()
	for i := len(b.base) - 1; i >= 0; i-- {
		di := digits[i]
		if di > 0 {
			lt := b.compileIvLEDigit(i, di-1)
			b.and(lt, regOp(P))
			b.or(R, regOp(lt))
			b.release(lt)
		}
		if i > 0 {
			e := b.compileIvEQDigit(i, di)
			b.and(P, regOp(e))
			b.release(e)
		}
	}
	b.release(P)
	return R
}
