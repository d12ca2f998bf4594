package fm

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"outcore/internal/matrix"
	"outcore/internal/rational"
)

// refRange is the rational Range that compiled integer rows replaced:
// the differential oracle for Bounds.Range.
func refRange(b *Bounds, lvl int, outer []int64) (lo, hi int64, empty bool) {
	haveLo, haveHi := false, false
	var bestLo, bestHi rational.Rat
	for _, c := range b.levels[lvl] {
		acc := c.rhs
		for j := 0; j < lvl; j++ {
			acc = acc.Sub(c.coefs[j].Mul(rational.FromInt(outer[j])))
		}
		cl := c.coefs[lvl]
		bound := acc.Div(cl)
		if cl.Sign() > 0 {
			if !haveHi || bound.Cmp(bestHi) < 0 {
				bestHi, haveHi = bound, true
			}
		} else {
			if !haveLo || bound.Cmp(bestLo) > 0 {
				bestLo, haveLo = bound, true
			}
		}
	}
	if !haveLo || !haveHi {
		panic("fm: unbounded variable (original space must be bounded)")
	}
	l, h := bestLo.Ceil(), bestHi.Floor()
	return l, h, l > h
}

// refCount counts the points by walking the oracle's ranges.
func refCount(b *Bounds) int64 {
	if !b.Feasible() {
		return 0
	}
	iv := make([]int64, b.k)
	var rec func(lvl int) int64
	rec = func(lvl int) int64 {
		if lvl == b.k {
			return 1
		}
		lo, hi, empty := refRange(b, lvl, iv[:lvl])
		if empty {
			return 0
		}
		var n int64
		for v := lo; v <= hi; v++ {
			iv[lvl] = v
			n += rec(lvl + 1)
		}
		return n
	}
	return rec(0)
}

// randomUnimodular composes k×k interchanges, reversals and skews.
func randomUnimodular(rng *rand.Rand, k int) *matrix.Int {
	q := matrix.Identity(k)
	for step := 0; step < 5; step++ {
		e := matrix.Identity(k)
		i, j := rng.Intn(k), rng.Intn(k)
		switch rng.Intn(3) {
		case 0: // interchange
			e.Set(i, i, 0)
			e.Set(j, j, 0)
			e.Set(i, j, 1)
			e.Set(j, i, 1)
			if i == j {
				e.Set(i, i, 1)
			}
		case 1: // reversal
			e.Set(i, i, -1)
		default: // skew
			if i != j {
				e.Set(i, j, int64(rng.Intn(5)-2))
			}
		}
		q = q.Mul(e)
	}
	return q
}

// compareRanges checks Range against the oracle at every prefix the
// oracle's enumeration reaches, plus one prefix just outside each range
// (where the inner range is often empty).
func compareRanges(b *Bounds) error {
	if !b.Feasible() {
		return nil
	}
	iv := make([]int64, b.k)
	var rec func(lvl int) error
	rec = func(lvl int) error {
		if lvl == b.k {
			return nil
		}
		wl, wh, we := refRange(b, lvl, iv[:lvl])
		gl, gh, ge := b.Range(lvl, iv[:lvl])
		if wl != gl || wh != gh || we != ge {
			return fmt.Errorf("level %d at %v: Range = (%d, %d, %v), oracle (%d, %d, %v)", lvl, iv[:lvl], gl, gh, ge, wl, wh, we)
		}
		for v := wl - 1; v <= wh+1; v++ {
			iv[lvl] = v
			if v < wl || v > wh {
				// Outside the range: compare the next level only.
				if lvl+1 < b.k {
					wl, wh, we := refRange(b, lvl+1, iv[:lvl+1])
					gl, gh, ge := b.Range(lvl+1, iv[:lvl+1])
					if wl != gl || wh != gh || we != ge {
						return fmt.Errorf("level %d at %v: Range = (%d, %d, %v), oracle (%d, %d, %v)", lvl+1, iv[:lvl+1], gl, gh, ge, wl, wh, we)
					}
				}
				continue
			}
			if err := rec(lvl + 1); err != nil {
				return err
			}
		}
		return nil
	}
	return rec(0)
}

func TestRangeMatchesRationalOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(3)
		q := randomUnimodular(rng, k)
		lo := make([]int64, k)
		hi := make([]int64, k)
		for d := 0; d < k; d++ {
			lo[d] = int64(rng.Intn(9) - 6) // negative bounds included
			hi[d] = lo[d] + int64(rng.Intn(5))
		}
		b := TransformedBounds(q, lo, hi).Eliminate()
		if err := compareRanges(b); err != nil {
			t.Logf("Q=%v lo=%v hi=%v: %v", q, lo, hi, err)
			return false
		}
		if got, want := b.Count(), refCount(b); got != want {
			t.Logf("Q=%v lo=%v hi=%v: Count = %d, oracle %d", q, lo, hi, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestRangeMatchesOracleNonUnimodular covers rows that need scaling:
// non-unit coefficients give rational bounds the integer rows must
// floor and ceil exactly as the oracle does.
func TestRangeMatchesOracleNonUnimodular(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewSystem(2)
		for c := 0; c < 4; c++ {
			coefs := []int64{int64(rng.Intn(7) - 3), int64(rng.Intn(7) - 3)}
			s.AddLE(coefs, int64(rng.Intn(21)-5))
		}
		// Keep the space bounded.
		s.AddGE([]int64{1, 0}, -4)
		s.AddLE([]int64{1, 0}, 6)
		s.AddGE([]int64{0, 1}, -5)
		s.AddLE([]int64{0, 1}, 7)
		b := s.Eliminate()
		if err := compareRanges(b); err != nil {
			t.Log(err)
			return false
		}
		return b.Count() == refCount(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRangeOverflowPanics(t *testing.T) {
	s := NewSystem(2)
	s.AddGE([]int64{1, 0}, 0)
	s.AddLE([]int64{1, 0}, 1<<40)
	s.AddGE([]int64{0, 1}, 0)
	s.AddLE([]int64{1 << 40, 1}, 0) // 2^40·x0 + x1 <= 0
	b := s.Eliminate()
	for name, rng := range map[string]func(int, []int64) (int64, int64, bool){
		"Range":  b.Range,
		"oracle": func(lvl int, outer []int64) (int64, int64, bool) { return refRange(b, lvl, outer) },
	} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("%s: 2^40·2^30 did not panic", name)
				} else if !strings.Contains(fmt.Sprint(r), "overflow") {
					t.Errorf("%s: panic %v, want an overflow", name, r)
				}
			}()
			rng(1, []int64{1 << 30})
		}()
	}
	// In range, the same rows still evaluate.
	if lo, hi, empty := b.Range(1, []int64{0}); lo != 0 || hi != 0 || empty {
		t.Errorf("Range(1, [0]) = (%d, %d, %v), want (0, 0, false)", lo, hi, empty)
	}
}
