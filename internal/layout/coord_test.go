package layout

import (
	"sync"
	"testing"
)

func TestCoordIntoMatchesCoord(t *testing.T) {
	ls := append(allLayouts(6, 9), NewPermutation([]int64{3, 4, 5}, []int{2, 0, 1}))
	for _, l := range ls {
		dst := make([]int64, l.Rank())
		for off := int64(0); off < l.Size(); off++ {
			want := l.Coord(off)
			l.CoordInto(dst, off)
			for d := range want {
				if dst[d] != want[d] {
					t.Fatalf("%s: CoordInto(%d) = %v, Coord = %v", l, off, dst, want)
				}
			}
		}
	}
	mustPanic(t, func() { RowMajor(2, 2).CoordInto(make([]int64, 2), 4) })
	mustPanic(t, func() { RowMajor(2, 2).CoordInto(make([]int64, 3), 0) })
}

func TestCoordIntoAllocationFree(t *testing.T) {
	for _, l := range allLayouts(16, 16) {
		var c [2]int64
		l.CoordInto(c[:], 0) // build the lookup tables first
		allocs := testing.AllocsPerRun(20, func() {
			for off := int64(0); off < l.Size(); off++ {
				l.CoordInto(c[:], off)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: CoordInto allocates %.1f times per pass", l, allocs)
		}
	}
}

// TestLayoutTablesConcurrentFirstUse inverts and maps fresh layouts from
// several goroutines at once. The lookup tables are built on first use;
// under -race an unsynchronized build is reported, and without it a
// reader that saw a half-built table returns a wrong coordinate.
func TestLayoutTablesConcurrentFirstUse(t *testing.T) {
	const n, m = 16, 16
	for _, mk := range []func() *Layout{
		func() *Layout { return Diagonal(n, m) },
		func() *Layout { return AntiDiagonal(n, m) },
		func() *Layout { return Blocked(n, m, 3, 5) },
		func() *Layout { return General(n, m, []int64{7, 4}) },
	} {
		want := mk()
		l := mk()
		var wg sync.WaitGroup
		errs := make(chan string, 4)
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				var c [2]int64
				for off := int64(0); off < l.Size(); off++ {
					if g%2 == 0 {
						l.CoordInto(c[:], off)
					} else {
						copy(c[:], l.Coord(off))
					}
					w := want.Coord(off)
					if c[0] != w[0] || c[1] != w[1] || l.Offset(c[:]) != off {
						errs <- l.Name()
						return
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for name := range errs {
			t.Errorf("%s: concurrent first use returned a wrong coordinate", name)
		}
	}
}
