package layout

import (
	"cmp"
	"fmt"
	"slices"
)

// Box is a half-open rectangular region [Lo[d], Hi[d]) of array
// coordinates — the shape of a data tile.
type Box struct {
	Lo, Hi []int64
}

// NewBox validates and returns a box.
func NewBox(lo, hi []int64) Box {
	if len(lo) != len(hi) {
		panic("layout: box rank mismatch")
	}
	for d := range lo {
		if hi[d] < lo[d] {
			panic(fmt.Sprintf("layout: box dimension %d reversed: [%d,%d)", d, lo[d], hi[d]))
		}
	}
	return Box{Lo: cloneI64(lo), Hi: cloneI64(hi)}
}

// Rank returns the box rank.
func (b Box) Rank() int { return len(b.Lo) }

// Size returns the number of elements in the box.
func (b Box) Size() int64 {
	n := int64(1)
	for d := range b.Lo {
		n *= b.Hi[d] - b.Lo[d]
	}
	return n
}

// Empty reports whether the box contains no elements.
func (b Box) Empty() bool { return b.Size() == 0 }

// Clip intersects the box with the array extents. A box already inside
// the extents is returned as-is (no copy): the tile engine's cached-GET
// path clips every request, and the common case — a well-formed tile —
// must not allocate. Callers treat boxes as immutable either way.
func (b Box) Clip(dims []int64) Box {
	inside := true
	for d := range b.Lo {
		if b.Lo[d] < 0 || b.Hi[d] > dims[d] || b.Hi[d] < b.Lo[d] {
			inside = false
			break
		}
	}
	if inside {
		return b
	}
	lo := make([]int64, len(b.Lo))
	hi := make([]int64, len(b.Hi))
	for d := range lo {
		lo[d] = maxI64(b.Lo[d], 0)
		hi[d] = minI64(b.Hi[d], dims[d])
		if hi[d] < lo[d] {
			hi[d] = lo[d]
		}
	}
	return Box{Lo: lo, Hi: hi}
}

// Overlaps reports whether the boxes share at least one element.
// Boxes of different rank never overlap; empty boxes overlap nothing.
func (b Box) Overlaps(o Box) bool {
	if b.Rank() != o.Rank() || b.Empty() || o.Empty() {
		return false
	}
	for d := range b.Lo {
		if b.Lo[d] >= o.Hi[d] || o.Lo[d] >= b.Hi[d] {
			return false
		}
	}
	return true
}

// Contains reports whether coordinates c lie inside the box.
func (b Box) Contains(c []int64) bool {
	for d := range c {
		if c[d] < b.Lo[d] || c[d] >= b.Hi[d] {
			return false
		}
	}
	return true
}

func (b Box) String() string { return fmt.Sprintf("[%v,%v)", b.Lo, b.Hi) }

// Run is a maximal contiguous file segment, in elements.
type Run struct {
	Off, Len int64
}

// Runs enumerates the maximal contiguous file segments that together
// cover exactly the elements of box under the layout, sorted by file
// offset. The number of runs is the paper's central I/O metric: one
// I/O request per run (possibly split further by the per-call byte cap
// and by striping, which the ooc and pfs packages model).
func (l *Layout) Runs(box Box) []Run {
	box = box.Clip(l.dims)
	if box.Empty() {
		return nil
	}
	switch l.kind {
	case Permutation:
		return mergeRuns(l.permSegments(box))
	case Diagonal2D:
		return mergeRuns(l.diagSegments(box, true))
	case AntiDiagonal2D:
		return mergeRuns(l.diagSegments(box, false))
	case Blocked2D:
		return mergeRuns(l.blockSegments(box))
	case General2D:
		return mergeRuns(l.genericSegments(box))
	default:
		panic("layout: unknown kind")
	}
}

// RunCount returns len(Runs(box)) without retaining the slice.
func (l *Layout) RunCount(box Box) int64 { return int64(len(l.Runs(box))) }

// permSegments yields one segment per "row" of the box along the
// fastest dimension of the permutation order.
func (l *Layout) permSegments(box Box) []Run {
	fast := l.perm[len(l.perm)-1]
	slow := l.perm[:len(l.perm)-1]
	segLen := box.Hi[fast] - box.Lo[fast]
	// Iterate the slow dims in perm-lexicographic order so segments come
	// out already sorted by offset.
	cur := make([]int64, l.Rank())
	copy(cur, box.Lo)
	segs := make([]Run, 0, box.Size()/segLen)
	for {
		cur[fast] = box.Lo[fast]
		segs = append(segs, Run{Off: l.Offset(cur), Len: segLen})
		// Advance the slow dims odometer-style, fastest slow dim last.
		k := len(slow) - 1
		for ; k >= 0; k-- {
			d := slow[k]
			cur[d]++
			if cur[d] < box.Hi[d] {
				break
			}
			cur[d] = box.Lo[d]
		}
		if k < 0 {
			return segs
		}
	}
}

// diagSegments yields one segment per (anti-)diagonal intersecting the
// box. For diag=true the family is i-j=c; otherwise i+j=s.
func (l *Layout) diagSegments(box Box, diag bool) []Run {
	r0, r1 := box.Lo[0], box.Hi[0]
	c0, c1 := box.Lo[1], box.Hi[1]
	segs := make([]Run, 0, (r1-r0)+(c1-c0)-1)
	if diag {
		// d = i - j ranges over [r0-(c1-1), r1-1-c0].
		for d := r0 - (c1 - 1); d <= r1-1-c0; d++ {
			iLo := maxI64(r0, d+c0)
			iHi := minI64(r1-1, d+c1-1)
			if iHi < iLo {
				continue
			}
			segs = append(segs, Run{Off: l.Offset([]int64{iLo, iLo - d}), Len: iHi - iLo + 1})
		}
	} else {
		for s := r0 + c0; s <= (r1-1)+(c1-1); s++ {
			iLo := maxI64(r0, s-(c1-1))
			iHi := minI64(r1-1, s-c0)
			if iHi < iLo {
				continue
			}
			segs = append(segs, Run{Off: l.Offset([]int64{iLo, s - iLo}), Len: iHi - iLo + 1})
		}
	}
	sortRuns(segs)
	return segs
}

// blockSegments yields row segments within each block the box overlaps.
func (l *Layout) blockSegments(box Box) []Run {
	b1, b2 := l.block[0], l.block[1]
	blockCols := (box.Hi[1]-1)/b2 - box.Lo[1]/b2 + 1
	segs := make([]Run, 0, (box.Hi[0]-box.Lo[0])*blockCols)
	for bi := box.Lo[0] / b1; bi*b1 < box.Hi[0]; bi++ {
		for bj := box.Lo[1] / b2; bj*b2 < box.Hi[1]; bj++ {
			rLo := maxI64(box.Lo[0], bi*b1)
			rHi := minI64(box.Hi[0], (bi+1)*b1)
			cLo := maxI64(box.Lo[1], bj*b2)
			cHi := minI64(box.Hi[1], (bj+1)*b2)
			for i := rLo; i < rHi; i++ {
				segs = append(segs, Run{Off: l.Offset([]int64{i, cLo}), Len: cHi - cLo})
			}
		}
	}
	sortRuns(segs)
	return segs
}

// genericSegments enumerates every element (table-backed layouts only).
func (l *Layout) genericSegments(box Box) []Run {
	offs := make([]int64, 0, box.Size())
	cur := make([]int64, l.Rank())
	copy(cur, box.Lo)
	for {
		offs = append(offs, l.Offset(cur))
		k := l.Rank() - 1
		for ; k >= 0; k-- {
			cur[k]++
			if cur[k] < box.Hi[k] {
				break
			}
			cur[k] = box.Lo[k]
		}
		if k < 0 {
			break
		}
	}
	slices.Sort(offs)
	segs := make([]Run, 0, len(offs))
	for _, o := range offs {
		if n := len(segs); n > 0 && segs[n-1].Off+segs[n-1].Len == o {
			segs[n-1].Len++
		} else {
			segs = append(segs, Run{Off: o, Len: 1})
		}
	}
	return segs
}

func sortRuns(segs []Run) {
	slices.SortFunc(segs, func(a, b Run) int { return cmp.Compare(a.Off, b.Off) })
}

// mergeRuns coalesces adjacent segments (sorted by offset) into maximal
// runs.
func mergeRuns(segs []Run) []Run {
	if len(segs) == 0 {
		return nil
	}
	out := segs[:1]
	for _, s := range segs[1:] {
		last := &out[len(out)-1]
		if last.Off+last.Len == s.Off {
			last.Len += s.Len
		} else {
			out = append(out, s)
		}
	}
	return out
}
