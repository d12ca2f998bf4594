// Package fm implements Fourier-Motzkin elimination over exact
// rationals, used to generate loop bounds for linearly transformed
// iteration spaces: given the original rectangular bounds Lo <= I <= Hi
// and I = Q·I', the constraints on I' are 2k affine inequalities, and
// eliminating inner variables yields, level by level, the bounds each
// transformed loop must scan.
package fm

import (
	"fmt"
	"math"

	"outcore/internal/matrix"
	"outcore/internal/rational"
)

// constraint encodes sum coefs[j]·x_j <= rhs.
type constraint struct {
	coefs []rational.Rat
	rhs   rational.Rat
}

// System is a conjunction of affine inequalities over k variables.
type System struct {
	k    int
	cons []constraint
}

// NewSystem returns an empty system over k variables.
func NewSystem(k int) *System { return &System{k: k} }

// AddLE adds sum coefs[j]·x_j <= rhs.
func (s *System) AddLE(coefs []int64, rhs int64) {
	if len(coefs) != s.k {
		panic("fm: coefficient length mismatch")
	}
	c := constraint{coefs: make([]rational.Rat, s.k), rhs: rational.FromInt(rhs)}
	for j, x := range coefs {
		c.coefs[j] = rational.FromInt(x)
	}
	s.cons = append(s.cons, c)
}

// AddGE adds sum coefs[j]·x_j >= rhs.
func (s *System) AddGE(coefs []int64, rhs int64) {
	neg := make([]int64, len(coefs))
	for j, x := range coefs {
		neg[j] = -x
	}
	s.AddLE(neg, -rhs)
}

// TransformedBounds builds the constraint system for I' where the
// original rectangular space Lo_j <= I_j <= Hi_j is mapped by I = Q·I'
// (Q integer, typically unimodular).
func TransformedBounds(q *matrix.Int, lo, hi []int64) *System {
	k := q.Cols()
	s := NewSystem(k)
	for row := 0; row < q.Rows(); row++ {
		r := q.Row(row)
		s.AddLE(r, hi[row])
		s.AddGE(r, lo[row])
	}
	return s
}

// Bounds is the result of the elimination: for each level l, the
// constraints mentioning x_l with all deeper variables eliminated, so
// the loop bounds at level l are computable from x_0..x_{l-1}.
type Bounds struct {
	k      int
	levels [][]constraint // levels[l]: constraints over x_0..x_l with coefs[l] != 0
	outer  []constraint   // constraints with no variables (feasibility checks)
	rows   []intLevel     // levels compiled to integer rows for Range
}

// intLevel is one level's constraints compiled to integers: each row
// was scaled by the LCM of its denominators and stored as
// a_0..a_{l-1}, r, d (stride l+2) with d > 0. An upper row reads
// Σ a_j·x_j + d·x_l <= r, a lower row Σ a_j·x_j − d·x_l <= r.
type intLevel struct {
	upper, lower []int64
}

// Eliminate runs Fourier-Motzkin from the innermost variable outward
// and returns per-level bound constraints.
func (s *System) Eliminate() *Bounds {
	b := &Bounds{k: s.k, levels: make([][]constraint, s.k)}
	cur := append([]constraint(nil), s.cons...)
	for lvl := s.k - 1; lvl >= 0; lvl-- {
		var with, without []constraint
		for _, c := range cur {
			if !c.coefs[lvl].IsZero() {
				with = append(with, c)
			} else {
				without = append(without, c)
			}
		}
		b.levels[lvl] = with
		// Combine each lower bound with each upper bound on x_lvl.
		var lows, ups []constraint
		for _, c := range with {
			if c.coefs[lvl].Sign() > 0 {
				ups = append(ups, c)
			} else {
				lows = append(lows, c)
			}
		}
		cur = without
		for _, lc := range lows {
			for _, uc := range ups {
				// lc: a·x + c_l·x_lvl <= b1 with c_l < 0  => x_lvl >= (...)
				// uc: a'·x + c_u·x_lvl <= b2 with c_u > 0 => x_lvl <= (...)
				// Eliminate: c_u·lc + (-c_l)·uc.
				cu := uc.coefs[lvl]
				cl := lc.coefs[lvl].Neg()
				nc := constraint{coefs: make([]rational.Rat, s.k)}
				for j := 0; j < s.k; j++ {
					nc.coefs[j] = cu.Mul(lc.coefs[j]).Add(cl.Mul(uc.coefs[j]))
				}
				nc.rhs = cu.Mul(lc.rhs).Add(cl.Mul(uc.rhs))
				if !nc.coefs[lvl].IsZero() {
					panic("fm: elimination failed to cancel")
				}
				cur = append(cur, nc)
			}
		}
	}
	b.compile()
	b.outer = nil
	for _, c := range cur {
		allZero := true
		for _, x := range c.coefs {
			if !x.IsZero() {
				allZero = false
				break
			}
		}
		if allZero {
			b.outer = append(b.outer, c)
		}
	}
	return b
}

// Feasible reports whether the variable-free residual constraints hold
// (an infeasible system has empty iteration space).
func (b *Bounds) Feasible() bool {
	for _, c := range b.outer {
		if rational.Zero.Cmp(c.rhs) > 0 {
			return false
		}
	}
	return true
}

// compile scales every level's rational constraints to integer rows,
// once, so that Range runs in int64 arithmetic: Range is evaluated at
// every level of every tile, the rational form only at build time.
func (b *Bounds) compile() {
	b.rows = make([]intLevel, b.k)
	for lvl, cons := range b.levels {
		for _, c := range cons {
			scale := c.rhs.Den()
			for _, x := range c.coefs[:lvl+1] {
				scale = rational.LCM(scale, x.Den())
			}
			row := make([]int64, lvl+1)
			for j, x := range c.coefs[:lvl] {
				row[j] = scaleInt(x, scale)
			}
			row[lvl] = scaleInt(c.rhs, scale)
			d := scaleInt(c.coefs[lvl], scale)
			if g := rational.GCD(rational.GCDAll(row...), d); g > 1 {
				for j := range row {
					row[j] /= g
				}
				d /= g
			}
			lv := &b.rows[lvl]
			if d > 0 {
				lv.upper = append(append(lv.upper, row...), d)
			} else {
				lv.lower = append(append(lv.lower, row...), -d)
			}
		}
	}
}

// scaleInt returns x·scale, which must be an integer.
func scaleInt(x rational.Rat, scale int64) int64 {
	return x.Mul(rational.FromInt(scale)).Int()
}

// Range returns the integer bounds [lo, hi] of variable lvl given the
// values of x_0..x_{lvl-1}. empty is true when no integer value
// satisfies the constraints. It panics when an intermediate product or
// sum overflows int64.
func (b *Bounds) Range(lvl int, outer []int64) (lo, hi int64, empty bool) {
	if lvl >= b.k || len(outer) < lvl {
		panic(fmt.Sprintf("fm: Range(%d) with %d outer values", lvl, len(outer)))
	}
	lv := &b.rows[lvl]
	if len(lv.upper) == 0 || len(lv.lower) == 0 {
		panic("fm: unbounded variable (original space must be bounded)")
	}
	stride := lvl + 2
	hi = math.MaxInt64
	for row := lv.upper; len(row) > 0; row = row[stride:] {
		if v := rowBound(row[:stride], outer); v < hi {
			hi = v
		}
	}
	lo = math.MinInt64
	for row := lv.lower; len(row) > 0; row = row[stride:] {
		if v := subChecked(0, rowBound(row[:stride], outer)); v > lo {
			lo = v
		}
	}
	return lo, hi, lo > hi
}

// rowBound returns floor((r − Σ a_j·x_j) / d) for row a_0..a_{n-1}, r, d:
// the upper bound an upper row puts on x_n, and the negated lower bound
// a lower row puts on it.
func rowBound(row, x []int64) int64 {
	n := len(row) - 2
	t := row[n]
	for j, a := range row[:n] {
		t = subChecked(t, mulChecked(a, x[j]))
	}
	d := row[n+1]
	if d == 1 {
		return t
	}
	q := t / d
	if t%d != 0 && t < 0 {
		q--
	}
	return q
}

func mulChecked(a, b int64) int64 {
	const half = 1 << 31
	if uint64(a+half) < 2*half && uint64(b+half) < 2*half {
		return a * b // both in [-2^31, 2^31): cannot overflow
	}
	if a == 0 || b == 0 {
		return 0
	}
	p := a * b
	if p/b != a || (a == -1 && b == math.MinInt64) || (b == -1 && a == math.MinInt64) {
		panic(fmt.Sprintf("fm: bound overflow: %d * %d", a, b))
	}
	return p
}

func subChecked(a, b int64) int64 {
	s := a - b
	if (b > 0 && s > a) || (b < 0 && s < a) {
		panic(fmt.Sprintf("fm: bound overflow: %d - %d", a, b))
	}
	return s
}

// Enumerate visits every integer point of the system in lexicographic
// order, passing a reused iteration-vector slice.
func (b *Bounds) Enumerate(visit func(iv []int64)) {
	if !b.Feasible() {
		return
	}
	iv := make([]int64, b.k)
	b.enum(iv, 0, visit)
}

func (b *Bounds) enum(iv []int64, lvl int, visit func(iv []int64)) {
	if lvl == b.k {
		visit(iv)
		return
	}
	lo, hi, empty := b.Range(lvl, iv[:lvl])
	if empty {
		return
	}
	for v := lo; v <= hi; v++ {
		iv[lvl] = v
		b.enum(iv, lvl+1, visit)
	}
}

// Count returns the number of integer points (for tests).
func (b *Bounds) Count() int64 {
	var n int64
	b.Enumerate(func([]int64) { n++ })
	return n
}
