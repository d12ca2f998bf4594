package codegen

import (
	"fmt"
	"time"

	"outcore/internal/ir"
	"outcore/internal/obs"
	"outcore/internal/ooc"
)

// ExecStats reports what one schedule execution did.
type ExecStats struct {
	Iterations int64 // statement-loop iterations executed
	Tiles      int64 // non-empty tiles processed
}

// Execute runs the whole schedule against the disk.
func (s *Schedule) Execute(d *ooc.Disk, mem *ooc.Memory) (ExecStats, error) {
	return s.ExecuteSlice(d, mem, 0, 1)
}

// ExecuteSlice runs the schedule's share for processor `part` of
// `parts`: the outermost tile loop is block-partitioned, the paper's
// communication-free parallelization.
func (s *Schedule) ExecuteSlice(d *ooc.Disk, mem *ooc.Memory, part, parts int) (ExecStats, error) {
	if parts < 1 || part < 0 || part >= parts {
		return ExecStats{}, fmt.Errorf("codegen: bad partition %d/%d", part, parts)
	}
	var stats ExecStats
	if !s.bounds.Feasible() {
		return stats, nil
	}
	k := s.Spec.Depth()
	// Tile counts along level 0 for block partitioning.
	nt0 := ceilDiv(s.Spec.Hi[0]-s.Spec.Lo[0]+1, s.Spec.Sizes[0])
	t0from, t0to := blockRange(nt0, int64(part), int64(parts))
	x := newTileExec(s)

	if s.engine != nil && !s.dryRun {
		err := x.executeSliceEngine(d, t0from, t0to, &stats)
		return stats, err
	}
	origin := make([]int64, k)
	var rec func(lvl int) error
	rec = func(lvl int) error {
		if lvl == k {
			return x.runTile(d, mem, origin, &stats)
		}
		from, to, step := s.tileLevel(lvl, t0from, t0to)
		for o := from; o <= to; o += step {
			origin[lvl] = o
			if err := rec(lvl + 1); err != nil {
				return err
			}
		}
		return nil
	}
	err := rec(0)
	return stats, err
}

// tileLevel returns the first and last tile origin and the step at
// level lvl; level 0 is restricted to the partition's tiles
// [t0from, t0to).
func (s *Schedule) tileLevel(lvl int, t0from, t0to int64) (from, to, step int64) {
	from, to = s.Spec.Lo[lvl], s.Spec.Hi[lvl]
	step = s.Spec.Sizes[lvl]
	if lvl == 0 {
		from = s.Spec.Lo[0] + t0from*step
		to = min(s.Spec.Lo[0]+t0to*step-1, s.Spec.Hi[0])
	}
	return from, to, step
}

// tileExec is the state of one schedule execution: tile bounds, the
// group tiles, and the strength-reduced index of every statement
// reference. It is sized once per ExecuteSlice and reused by every
// tile, so the iteration loop allocates nothing.
//
// A tile runs as the loop nest the paper's compiler would emit: the
// Fourier-Motzkin bounds give, for each point of the outer levels, one
// span [lo, hi] of the innermost level. Along a span every reference's
// tile-local index is affine in the innermost index, so it is computed
// once at the span start (c0 + w·iv) and then advances by a constant
// step; the original iteration vector advances by Q's last column.
type tileExec struct {
	s      *Schedule
	iv     []int64   // transformed iteration vector; iv[k-1] is a span start
	origIv []int64   // Q·iv at the current iteration
	qLast  []int64   // Q's last column: origIv's step along a span
	in     []float64 // statement inputs
	// Current and next tile bounds, inclusive.
	tLo, tHi, nLo, nHi []int64
	// Per group.
	tiles []*ooc.Tile
	w     [][]int64 // tile-local index coefficient of each transformed level
	mLast [][]int64 // access matrix's last column: coordinate step along a span
	pos   [][]int64 // box-relative coordinate (offset excluded) at the span start
	dims  [][]int64 // tile box extents
	base  []int64   // w·iv at the span start
	// Per slot.
	data [][]float64 // the slot's tile buffer
	c0   []int64     // constant part of the tile-local index
	step []int64     // the index's advance per iteration of a span
	idx  []int64     // tile-local index at the current iteration
	// Per statement: the sub-span [sLo, sHi] where its guards hold.
	sLo, sHi []int64
}

func newTileExec(s *Schedule) *tileExec {
	k := s.Spec.Depth()
	x := &tileExec{
		s: s, iv: make([]int64, k), origIv: make([]int64, k), qLast: make([]int64, k),
		tLo: make([]int64, k), tHi: make([]int64, k), nLo: make([]int64, k), nHi: make([]int64, k),
		tiles: make([]*ooc.Tile, len(s.groups)), w: make([][]int64, len(s.groups)),
		mLast: make([][]int64, len(s.groups)), pos: make([][]int64, len(s.groups)), dims: make([][]int64, len(s.groups)),
		base: make([]int64, len(s.groups)),
		data: make([][]float64, len(s.slots)), c0: make([]int64, len(s.slots)), step: make([]int64, len(s.slots)), idx: make([]int64, len(s.slots)),
		sLo: make([]int64, len(s.stmts)), sHi: make([]int64, len(s.stmts)),
	}
	for r := 0; r < k; r++ {
		x.qLast[r] = s.Plan.Q.At(r, k-1)
	}
	for gi, g := range s.groups {
		rank := g.arr.Rank()
		x.w[gi] = make([]int64, k)
		x.pos[gi] = make([]int64, rank)
		x.dims[gi] = make([]int64, rank)
		x.mLast[gi] = make([]int64, rank)
		for d := 0; d < rank; d++ {
			x.mLast[gi][d] = g.m.At(d, k-1)
		}
	}
	n := 0
	for _, ss := range s.stmts {
		n = max(n, len(ss.in))
	}
	x.in = make([]float64, n)
	return x
}

// executeSliceEngine runs the partition's tiles through the concurrent
// tile engine: the tile origins are materialized up front so that while
// tile i computes, tile i+1's read footprints are already being
// prefetched — the PASSION double-buffering pattern.
func (x *tileExec) executeSliceEngine(d *ooc.Disk, t0from, t0to int64, stats *ExecStats) error {
	s := x.s
	k := s.Spec.Depth()
	var origins []int64 // k per tile
	origin := make([]int64, k)
	var rec func(lvl int)
	rec = func(lvl int) {
		if lvl == k {
			origins = append(origins, origin...)
			return
		}
		from, to, step := s.tileLevel(lvl, t0from, t0to)
		for o := from; o <= to; o += step {
			origin[lvl] = o
			rec(lvl + 1)
		}
	}
	rec(0)
	n := len(origins) / k
	var count int64
	for i := 0; i < n; i++ {
		s.tileBounds(origins[i*k:(i+1)*k], x.tLo, x.tHi)
		if i == 0 {
			count = x.walk(0, x.tLo, x.tHi, false)
		}
		// The next tile's point count gates this tile's prefetch and is
		// the next iteration's emptiness test.
		var nextCount int64
		if i+1 < n {
			s.tileBounds(origins[(i+1)*k:(i+2)*k], x.nLo, x.nHi)
			nextCount = x.walk(0, x.nLo, x.nHi, false)
		}
		if count > 0 {
			if err := x.runTileEngine(d, nextCount > 0, stats); err != nil {
				return err
			}
		}
		count = nextCount
	}
	return nil
}

// tileBounds writes the inclusive iteration-space bounds of the tile at
// origin, clipped to the spec, into tLo and tHi.
func (s *Schedule) tileBounds(origin, tLo, tHi []int64) {
	for lvl := range tLo {
		tLo[lvl] = origin[lvl]
		tHi[lvl] = min(origin[lvl]+s.Spec.Sizes[lvl]-1, s.Spec.Hi[lvl])
	}
}

// runTile processes one tile: read group footprints, execute
// iterations, write back.
func (x *tileExec) runTile(d *ooc.Disk, mem *ooc.Memory, origin []int64, stats *ExecStats) error {
	s := x.s
	s.tileBounds(origin, x.tLo, x.tHi)
	iters := x.walk(0, x.tLo, x.tHi, false)
	if iters == 0 {
		return nil
	}
	if s.dryRun {
		return s.dryRunTile(d, mem, x.tLo, x.tHi, iters, stats)
	}
	var allocated int64
	for gi, g := range s.groups {
		x.tiles[gi] = nil
		box := g.footprintBox(x.tLo, x.tHi)
		if box.Empty() {
			continue
		}
		if err := mem.Alloc(box.Size()); err != nil {
			return err
		}
		allocated += box.Size()
		arr := d.ArrayOf(g.arr)
		if arr == nil {
			return fmt.Errorf("codegen: array %s not on disk", g.arr.Name)
		}
		tile, err := arr.ReadTile(box)
		if err != nil {
			return err
		}
		x.tiles[gi] = tile
	}
	stats.Tiles++
	stats.Iterations += x.execTile()
	for gi, g := range s.groups {
		if s.writes[g.arr] && x.tiles[gi] != nil {
			if err := x.tiles[gi].WriteTile(); err != nil {
				return err
			}
		}
	}
	mem.Release(allocated)
	return nil
}

// runTileEngine processes the tile [tLo, tHi] through the concurrent
// engine: acquire the group footprints from the cache (parallel fetch
// on misses), kick off prefetches for the next tile [nLo, nHi] when
// prefetchNext is set, execute the iterations, and release with dirty
// marking so write-back happens on eviction or flush.
func (x *tileExec) runTileEngine(d *ooc.Disk, prefetchNext bool, stats *ExecStats) error {
	s := x.s
	var reqs []ooc.TileReq
	var reqGroup []int
	for gi, g := range s.groups {
		x.tiles[gi] = nil
		box := g.footprintBox(x.tLo, x.tHi)
		if box.Empty() {
			continue
		}
		arr := d.ArrayOf(g.arr)
		if arr == nil {
			return fmt.Errorf("codegen: array %s not on disk", g.arr.Name)
		}
		reqs = append(reqs, ooc.TileReq{Arr: arr, Box: box})
		reqGroup = append(reqGroup, gi)
	}
	handles, err := s.engine.AcquireAll(reqs)
	if err != nil {
		return err
	}
	for i, h := range handles {
		x.tiles[reqGroup[i]] = h.Tile()
	}
	// Double buffering: while this tile computes, the workers read the
	// next tile's footprints. Written arrays are excluded — their boxes
	// may be dirtied by this tile's release, which would force the
	// prefetched copy to be discarded and re-read (extra I/O the
	// sequential runtime never pays). The same economics gate the whole
	// batch on cache capacity: unless the cache can hold this tile's
	// pinned working set plus the prefetched tiles, prefetching evicts
	// tiles before they are used and inflates the call count instead of
	// hiding it.
	if prefetchNext {
		var pre []ooc.TileReq
		for _, g := range s.groups {
			if s.writes[g.arr] {
				continue
			}
			box := g.footprintBox(x.nLo, x.nHi)
			if box.Empty() {
				continue
			}
			if arr := d.ArrayOf(g.arr); arr != nil {
				pre = append(pre, ooc.TileReq{Arr: arr, Box: box})
			}
		}
		if s.engine.Capacity() >= len(reqs)+len(pre) {
			for _, p := range pre {
				s.engine.Prefetch(p.Arr, p.Box)
			}
		}
	}
	stats.Tiles++
	stats.Iterations += x.execTile()
	for i, h := range handles {
		s.engine.Release(h, s.writes[s.groups[reqGroup[i]].arr])
	}
	return nil
}

// execTile is the tile body both executor paths share: it runs every
// statement instance of the tile [tLo, tHi] against the loaded group
// tiles and returns the number of iterations.
func (x *tileExec) execTile() int64 {
	s := x.s
	k := len(x.iv)
	for gi, g := range s.groups {
		t := x.tiles[gi]
		if t == nil {
			continue
		}
		// w[j] = Σ_d stride_d · m[d][j] over the tile's row-major strides.
		w := x.w[gi]
		clear(w)
		stride := int64(1)
		for d := g.arr.Rank() - 1; d >= 0; d-- {
			for j := 0; j < k; j++ {
				w[j] += stride * g.m.At(d, j)
			}
			x.dims[gi][d] = t.Box.Hi[d] - t.Box.Lo[d]
			stride *= x.dims[gi][d]
		}
	}
	for sl, r := range s.slots {
		t := x.tiles[r.group]
		if t == nil {
			x.data[sl] = nil
			continue
		}
		var c0 int64
		stride := int64(1)
		for d := len(r.off) - 1; d >= 0; d-- {
			c0 += stride * (r.off[d] - t.Box.Lo[d])
			stride *= t.Box.Hi[d] - t.Box.Lo[d]
		}
		x.c0[sl] = c0
		x.step[sl] = x.w[r.group][k-1]
		x.data[sl] = t.Data()
	}
	t0 := s.computeStart()
	n := x.walk(0, x.tLo, x.tHi, true)
	s.computeEnd(t0)
	return n
}

// walk enumerates the transformed space restricted to the tile box
// [tLo, tHi] from level lvl down, in lexicographic order, and returns
// its point count. The innermost level contributes whole spans: with
// exec set each is executed, otherwise only counted, which makes
// counting cost O(points / innermost extent).
func (x *tileExec) walk(lvl int, tLo, tHi []int64, exec bool) int64 {
	lo, hi, empty := x.s.bounds.Range(lvl, x.iv[:lvl])
	if empty {
		return 0
	}
	lo, hi = max(lo, tLo[lvl]), min(hi, tHi[lvl])
	if lvl == len(x.iv)-1 {
		if lo > hi {
			return 0
		}
		if exec {
			x.span(lo, hi)
		}
		return hi - lo + 1
	}
	var n int64
	for v := lo; v <= hi; v++ {
		x.iv[lvl] = v
		n += x.walk(lvl+1, tLo, tHi, exec)
	}
	return n
}

// span executes the iterations iv[k-1] = lo..hi at the current outer
// indices.
func (x *tileExec) span(lo, hi int64) {
	s := x.s
	k := len(x.iv)
	x.iv[k-1] = lo
	for r := 0; r < k; r++ {
		var acc int64
		for c := 0; c < k; c++ {
			acc += s.Plan.Q.At(r, c) * x.iv[c]
		}
		x.origIv[r] = acc
	}
	for gi, g := range s.groups {
		t := x.tiles[gi]
		if t == nil {
			continue
		}
		var b int64
		for j, w := range x.w[gi] {
			b += w * x.iv[j]
		}
		x.base[gi] = b
		for d := range x.pos[gi] {
			var acc int64
			for j := 0; j < k; j++ {
				acc += g.m.At(d, j) * x.iv[j]
			}
			x.pos[gi][d] = acc - t.Box.Lo[d]
		}
	}
	for sl, r := range s.slots {
		x.idx[sl] = x.base[r.group] + x.c0[sl]
	}
	// Guards become sub-spans; every reference a statement makes is
	// checked at the two ends of its sub-span. Coordinates are affine in
	// iv[k-1] and the tile box is convex, so both ends inside means
	// every point between is inside.
	for si := range s.stmts {
		ss := &s.stmts[si]
		a, b := x.guardSpan(ss.st.Guard, lo, hi)
		x.sLo[si], x.sHi[si] = a, b
		if a > b {
			continue
		}
		for _, sl := range ss.in {
			x.checkSlot(sl, lo, a, b)
		}
		x.checkSlot(ss.out, lo, a, b)
	}
	for v := lo; v <= hi; v++ {
		for si := range s.stmts {
			if v < x.sLo[si] || v > x.sHi[si] {
				continue
			}
			ss := &s.stmts[si]
			in := x.in[:len(ss.in)]
			for i, sl := range ss.in {
				in[i] = x.data[sl][x.idx[sl]]
			}
			x.data[ss.out][x.idx[ss.out]] = ss.st.F(in, x.origIv)
		}
		for sl, dx := range x.step {
			x.idx[sl] += dx
		}
		for r, dq := range x.qLast {
			x.origIv[r] += dq
		}
	}
}

// guardSpan returns the sub-span of [lo, hi] where every guard
// origIv[Level] == Value holds, given origIv at lo: a guard on a level
// the span does not move holds everywhere or nowhere, any other guard
// at exactly one point.
func (x *tileExec) guardSpan(guards []ir.GuardEq, lo, hi int64) (a, b int64) {
	a, b = lo, hi
	for _, g := range guards {
		diff, dq := g.Value-x.origIv[g.Level], x.qLast[g.Level]
		switch {
		case dq == 0 && diff == 0:
		case dq == 0 || diff%dq != 0:
			return lo, lo - 1
		default:
			v := lo + diff/dq
			a, b = max(a, v), min(b, v)
		}
	}
	return a, b
}

// checkSlot panics unless slot sl's element lies inside its tile at
// iv[k-1] = a and at iv[k-1] = b, for a span starting at lo.
func (x *tileExec) checkSlot(sl int, lo, a, b int64) {
	r := &x.s.slots[sl]
	t := x.tiles[r.group]
	if t == nil {
		x.outside(r, a, "no tile")
	}
	dims, mLast := x.dims[r.group], x.mLast[r.group]
	for d, p := range x.pos[r.group] {
		ca := p + r.off[d] + mLast[d]*(a-lo)
		cb := ca + mLast[d]*(b-a)
		if uint64(ca) >= uint64(dims[d]) {
			x.outside(r, a, t.Box.String())
		}
		if uint64(cb) >= uint64(dims[d]) {
			x.outside(r, b, t.Box.String())
		}
	}
}

// outside panics with the global coordinate of slot r at iv[k-1] = v.
func (x *tileExec) outside(r *refSlot, v int64, box string) {
	g := x.s.groups[r.group]
	iv := append([]int64(nil), x.iv...)
	iv[len(iv)-1] = v
	c := make([]int64, len(r.off))
	for d := range c {
		c[d] = r.off[d]
		for j, ivj := range iv {
			c[d] += g.m.At(d, j) * ivj
		}
	}
	panic(fmt.Sprintf("codegen: %s coordinate %v outside tile %s", g.arr.Name, c, box))
}

// computeStart/computeEnd bracket one tile's statement execution as a
// KindCompute trace span; without an attached trace they cost a nil
// check and a zero time.Time.
func (s *Schedule) computeStart() time.Time {
	if s.trace == nil {
		return time.Time{}
	}
	return time.Now()
}

func (s *Schedule) computeEnd(t0 time.Time) {
	if s.trace == nil || t0.IsZero() {
		return
	}
	s.trace.Emit(obs.Event{Kind: obs.KindCompute, Name: s.traceName,
		Start: s.trace.Stamp(t0), Dur: time.Since(t0).Nanoseconds()})
}

// dryRunTile accounts one tile's I/O and its iters iterations without
// touching data.
func (s *Schedule) dryRunTile(d *ooc.Disk, mem *ooc.Memory, tLo, tHi []int64, iters int64, stats *ExecStats) error {
	stats.Iterations += iters
	stats.Tiles++
	if s.engine != nil {
		// Cached dry run: the engine's tile cache decides which touches
		// reach the backend accounting; the memory budget is replaced by
		// the cache's tile-count capacity.
		for _, g := range s.groups {
			box := g.footprintBox(tLo, tHi)
			if box.Empty() {
				continue
			}
			arr := d.ArrayOf(g.arr)
			if arr == nil {
				return fmt.Errorf("codegen: array %s not on disk", g.arr.Name)
			}
			s.engine.Touch(arr, box, s.writes[g.arr])
		}
		return nil
	}
	var allocated int64
	for _, g := range s.groups {
		box := g.footprintBox(tLo, tHi)
		if box.Empty() {
			continue
		}
		if err := mem.Alloc(box.Size()); err != nil {
			return err
		}
		allocated += box.Size()
		arr := d.ArrayOf(g.arr)
		if arr == nil {
			return fmt.Errorf("codegen: array %s not on disk", g.arr.Name)
		}
		arr.TouchRead(box)
		if s.writes[g.arr] {
			arr.TouchWrite(box)
		}
	}
	mem.Release(allocated)
	return nil
}
