package ooc

import (
	"testing"

	"outcore/internal/ir"
	"outcore/internal/layout"
)

// TestAcquireHitAllocs pins the zero-allocation contract of the
// cached-GET path: once a tile is resident, Acquire+Release must not
// allocate — no key string, no handle, no box copy. The serving layer's
// allocs_per_get bench gate holds only if this does.
func TestAcquireHitAllocs(t *testing.T) {
	d := NewDisk(0)
	arr, err := d.CreateArray(ir.NewArray("a", 64, 64), layout.RowMajor(64, 64))
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(d, EngineOptions{CacheTiles: 4})
	defer e.Close()
	box := layout.NewBox([]int64{0, 0}, []int64{8, 8})
	h, err := e.Acquire(arr, box) // warm the cache
	if err != nil {
		t.Fatal(err)
	}
	e.Release(h, false)

	allocs := testing.AllocsPerRun(200, func() {
		h, err := e.Acquire(arr, box)
		if err != nil {
			t.Fatal(err)
		}
		e.Release(h, false)
	})
	if allocs != 0 {
		t.Fatalf("cached Acquire+Release allocates %.1f objects per op, want 0", allocs)
	}
}

// TestShardOfAllocs pins the same contract for shard routing: the
// sharded plane computes ShardOf before every request, so its key
// encoding must stay on the stack.
func TestShardOfAllocs(t *testing.T) {
	box := layout.NewBox([]int64{128, 256}, []int64{192, 320})
	allocs := testing.AllocsPerRun(200, func() {
		_ = ShardOf("somearray", box, 8)
	})
	if allocs != 0 {
		t.Fatalf("ShardOf allocates %.1f objects per op, want 0", allocs)
	}
}

// TestTileIOAllocsFlat pins that a tile transfer allocates a fixed
// number of objects whatever its size: the tile, one run list and one
// run buffer, never a coordinate per element or a buffer per run.
func TestTileIOAllocsFlat(t *testing.T) {
	const n = 256
	for _, l := range []*layout.Layout{
		layout.RowMajor(n, n),
		layout.ColMajor(n, n),
		layout.Diagonal(n, n),
		layout.AntiDiagonal(n, n),
		layout.Blocked(n, n, 16, 32),
		layout.General(n, n, []int64{3, 2}),
	} {
		d := NewDisk(64)
		arr, err := d.CreateArray(ir.NewArray("a", n, n), l)
		if err != nil {
			t.Fatal(err)
		}
		allocsFor := func(edge int64) float64 {
			box := layout.NewBox([]int64{5, 7}, []int64{5 + edge, 7 + edge})
			return testing.AllocsPerRun(20, func() {
				tile, err := arr.ReadTile(box)
				if err != nil {
					t.Fatal(err)
				}
				if err := tile.WriteTile(); err != nil {
					t.Fatal(err)
				}
			})
		}
		small, large := allocsFor(16), allocsFor(128)
		if large > small {
			t.Errorf("%s: ReadTile+WriteTile allocates %.0f objects on a 16x16 box but %.0f on 128x128", l, small, large)
		}
	}
}
