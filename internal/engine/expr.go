package engine

import (
	"strings"

	"bitmapindex/internal/bitvec"
	"bitmapindex/internal/telemetry"
)

// Expr is a boolean selection expression over column predicates. The
// efficient hardware support for bitmap AND/OR/NOT is the paper's core
// motivation for bitmap indexes; expressions compose predicate bitmaps
// with exactly those operations. A conjunction of predicates is
// All(Leaf(p1), Leaf(p2), ...), and that is how Select runs one.
type Expr interface {
	// String renders the expression as SQL-ish text.
	String() string
	// rowTest binds the expression to r's columns, resolving each leaf's
	// column once, and returns a test of one row.
	rowTest(r *Relation) (func(row int) bool, error)
	// bitmap evaluates the expression through bitmap indexes. In count
	// mode it returns only the number of qualifying rows.
	bitmap(x *bitmapRun, count bool) (*bitvec.Vector, int, error)
}

// Leaf lifts a predicate into an expression.
func Leaf(p Pred) Expr { return leafExpr{p} }

// All is the conjunction of the given expressions (true when empty).
func All(es ...Expr) Expr { return naryExpr{op: "AND", es: es} }

// Any is the disjunction of the given expressions (false when empty).
func Any(es ...Expr) Expr { return naryExpr{op: "OR", es: es} }

// Not negates an expression; null rows still never match.
func Not(e Expr) Expr { return notExpr{e} }

// appendLeaves appends e's predicates to dst in evaluation order.
func appendLeaves(dst []Pred, e Expr) []Pred {
	switch e := e.(type) {
	case leafExpr:
		return append(dst, e.p)
	case naryExpr:
		for _, sub := range e.es {
			dst = appendLeaves(dst, sub)
		}
	case notExpr:
		return appendLeaves(dst, e.e)
	}
	return dst
}

type leafExpr struct{ p Pred }

func (l leafExpr) String() string { return l.p.String() }

func (l leafExpr) rowTest(r *Relation) (func(int) bool, error) {
	c, err := r.Column(l.p.Col)
	if err != nil {
		return nil, err
	}
	p := l.p
	return func(row int) bool { return p.matches(c, row) }, nil
}

func (l leafExpr) bitmap(x *bitmapRun, count bool) (*bitvec.Vector, int, error) {
	return x.leaf(l.p, count)
}

type naryExpr struct {
	op string
	es []Expr
}

func (n naryExpr) String() string {
	if len(n.es) == 0 {
		if n.op == "AND" {
			return "TRUE"
		}
		return "FALSE"
	}
	parts := make([]string, len(n.es))
	for i, e := range n.es {
		parts[i] = e.String()
	}
	return "(" + strings.Join(parts, " "+n.op+" ") + ")"
}

func (n naryExpr) rowTest(r *Relation) (func(int) bool, error) {
	if len(n.es) == 1 {
		return n.es[0].rowTest(r)
	}
	tests := make([]func(int) bool, len(n.es))
	for i, e := range n.es {
		t, err := e.rowTest(r)
		if err != nil {
			return nil, err
		}
		tests[i] = t
	}
	// A conjunction stops at the first false operand, a disjunction at the
	// first true one.
	and := n.op == "AND"
	return func(row int) bool {
		for _, t := range tests {
			if t(row) != and {
				return !and
			}
		}
		return and
	}, nil
}

func (n naryExpr) bitmap(x *bitmapRun, count bool) (*bitvec.Vector, int, error) {
	if len(n.es) == 1 {
		return n.es[0].bitmap(x, count)
	}
	tr := x.req.Trace
	var acc *bitvec.Vector
	for i, e := range n.es {
		b, _, err := e.bitmap(x, false)
		if err != nil {
			return nil, 0, err
		}
		switch {
		case acc == nil:
			acc = b
		case n.op == "OR":
			sp := tr.Start(telemetry.PhaseBoolOps)
			acc.Or(b)
			sp.End()
			x.st.Ors++
		case count && i == len(n.es)-1:
			// Fuse the last AND with the popcount: the conjunction's
			// result vector is never written.
			sp := tr.Start(telemetry.PhasePopcount)
			k := bitvec.AndCount(acc, b)
			sp.End()
			x.st.Ands++
			return nil, k, nil
		default:
			sp := tr.Start(telemetry.PhaseBoolOps)
			acc.And(b)
			sp.End()
			x.st.Ands++
		}
	}
	switch {
	case acc != nil:
	case n.op == "AND":
		acc = bitvec.NewOnes(x.r.Rows())
	default:
		acc = bitvec.New(x.r.Rows())
	}
	return x.result(acc, count)
}

type notExpr struct{ e Expr }

func (n notExpr) String() string { return "NOT " + n.e.String() }

func (n notExpr) rowTest(r *Relation) (func(int) bool, error) {
	t, err := n.e.rowTest(r)
	if err != nil {
		return nil, err
	}
	return func(row int) bool { return !t(row) }, nil
}

func (n notExpr) bitmap(x *bitmapRun, count bool) (*bitvec.Vector, int, error) {
	b, _, err := n.e.bitmap(x, false)
	if err != nil {
		return nil, 0, err
	}
	sp := x.req.Trace.Start(telemetry.PhaseBoolOps)
	b.Not() // b is this node's own vector: every leaf evaluation is fresh
	sp.End()
	x.st.Nots++
	return x.result(b, count)
}
