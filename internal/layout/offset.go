package layout

import "fmt"

// Offset maps array coordinates c to the linear file offset (in
// elements) under the layout. It is a bijection from the array box to
// [0, Size()).
func (l *Layout) Offset(c []int64) int64 {
	if len(c) != len(l.dims) {
		panic("layout: coordinate rank mismatch")
	}
	for d, x := range c {
		if x < 0 || x >= l.dims[d] {
			panic(fmt.Sprintf("layout: coordinate %v out of bounds %v", append([]int64(nil), c...), l.dims))
		}
	}
	switch l.kind {
	case Permutation:
		var off int64
		for _, d := range l.perm {
			off = off*l.dims[d] + c[d]
		}
		return off
	case Diagonal2D:
		// Diagonal d = i - j, ordered d ascending from -(m-1); within a
		// diagonal, ascending i.
		i, j := c[0], c[1]
		d := i - j
		return l.diagStart(d+l.dims[1]-1) + (i - maxI64(0, d))
	case AntiDiagonal2D:
		// Anti-diagonal s = i + j, ascending; within, ascending i.
		i, j := c[0], c[1]
		s := i + j
		return l.diagStart(s) + (i - maxI64(0, s-(l.dims[1]-1)))
	case General2D:
		l.memoize()
		return l.table[c[0]*l.dims[1]+c[1]]
	case Blocked2D:
		b1, b2 := l.block[0], l.block[1]
		bi, bj := c[0]/b1, c[1]/b2
		ri, rj := c[0]%b1, c[1]%b2
		// Within-block row-major over the (possibly clipped) block.
		bw := minI64(b2, l.dims[1]-bj*b2)
		return l.blockStart(bi, bj) + ri*bw + rj
	default:
		panic("layout: unknown kind")
	}
}

// Coord maps a file offset back to array coordinates (inverse of
// Offset).
func (l *Layout) Coord(off int64) []int64 {
	c := make([]int64, len(l.dims))
	l.CoordInto(c, off)
	return c
}

// CoordInto writes the array coordinates of file offset off into dst,
// which must have length Rank(): Coord without the allocation, for
// per-element loops.
func (l *Layout) CoordInto(dst []int64, off int64) {
	if len(dst) != len(l.dims) {
		panic("layout: coordinate rank mismatch")
	}
	if off < 0 || off >= l.Size() {
		panic("layout: offset out of range")
	}
	switch l.kind {
	case Permutation:
		for k := len(l.perm) - 1; k >= 0; k-- {
			d := l.perm[k]
			dst[d] = off % l.dims[d]
			off /= l.dims[d]
		}
	case Diagonal2D:
		k := l.findDiag(off)
		d := k - (l.dims[1] - 1)
		i := maxI64(0, d) + (off - l.starts[k])
		dst[0], dst[1] = i, i-d
	case AntiDiagonal2D:
		s := l.findDiag(off)
		i := maxI64(0, s-(l.dims[1]-1)) + (off - l.starts[s])
		dst[0], dst[1] = i, s-i
	case General2D:
		l.memoize()
		lin := l.tableInv[off]
		dst[0], dst[1] = lin/l.dims[1], lin%l.dims[1]
	case Blocked2D:
		l.memoize()
		starts := l.starts
		// Binary search over block starts.
		lo, hi := 0, len(starts)-1
		for lo < hi {
			mid := (lo + hi + 1) / 2
			if starts[mid] <= off {
				lo = mid
			} else {
				hi = mid - 1
			}
		}
		nb2 := ceilDiv(l.dims[1], l.block[1])
		bi, bj := int64(lo)/nb2, int64(lo)%nb2
		rem := off - starts[lo]
		bw := minI64(l.block[1], l.dims[1]-bj*l.block[1])
		dst[0], dst[1] = bi*l.block[0]+rem/bw, bj*l.block[1]+rem%bw
	default:
		panic("layout: unknown kind")
	}
}

// diagCount returns the number of diagonals (for both diagonal kinds
// the count is n+m-1).
func (l *Layout) diagCount() int64 { return l.dims[0] + l.dims[1] - 1 }

// diagLen returns the length of normalized diagonal k in [0, n+m-1).
// For AntiDiagonal2D k = i+j; for Diagonal2D k = (i-j) + (m-1). Both
// parameterizations give the same length profile.
func (l *Layout) diagLen(k int64) int64 {
	n, m := l.dims[0], l.dims[1]
	return minI64(k, n-1) - maxI64(0, k-(m-1)) + 1
}

// memoize builds, once, the lookup tables of the layouts that need
// them: per-diagonal start offsets (Diagonal2D, AntiDiagonal2D),
// per-block start offsets (Blocked2D) and the permutation table
// (General2D). Concurrent tile reads invert one layout from many
// goroutines, so the tables are published through a sync.Once.
func (l *Layout) memoize() {
	l.once.Do(func() {
		switch l.kind {
		case Diagonal2D, AntiDiagonal2D:
			starts := make([]int64, l.diagCount()+1)
			for d := int64(0); d < l.diagCount(); d++ {
				starts[d+1] = starts[d] + l.diagLen(d)
			}
			l.starts = starts
		case Blocked2D:
			nb1 := ceilDiv(l.dims[0], l.block[0])
			nb2 := ceilDiv(l.dims[1], l.block[1])
			starts := make([]int64, nb1*nb2)
			var acc int64
			for bi := int64(0); bi < nb1; bi++ {
				bh := minI64(l.block[0], l.dims[0]-bi*l.block[0])
				for bj := int64(0); bj < nb2; bj++ {
					bw := minI64(l.block[1], l.dims[1]-bj*l.block[1])
					starts[bi*nb2+bj] = acc
					acc += bh * bw
				}
			}
			l.starts = starts
		case General2D:
			l.buildTable()
		}
	})
}

// diagStart returns the file offset where normalized diagonal k begins.
func (l *Layout) diagStart(k int64) int64 {
	l.memoize()
	return l.starts[k]
}

// findDiag returns the normalized diagonal containing file offset off.
func (l *Layout) findDiag(off int64) int64 {
	l.memoize()
	lo, hi := int64(0), l.diagCount()-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if l.starts[mid] <= off {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

func (l *Layout) blockStart(bi, bj int64) int64 {
	l.memoize()
	nb2 := ceilDiv(l.dims[1], l.block[1])
	return l.starts[bi*nb2+bj]
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }
