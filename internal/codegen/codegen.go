// Package codegen turns an optimized nest (loop transformation + file
// layouts + tiling strategy) into an executable out-of-core schedule.
//
// A schedule enumerates data tiles over the TRANSFORMED iteration
// space, reads each referenced array's footprint box through the ooc
// runtime (paying the I/O calls the layouts imply), executes the
// original statement semantics on the in-memory tiles (iterating the
// transformed space via Fourier-Motzkin bounds and mapping back through
// Q), and writes modified tiles out. Executing a schedule is therefore
// both a correctness check (results must match the in-core reference)
// and the measurement instrument for every experiment in the paper.
//
// Tiles are held per (array, access matrix) group: references that
// move together share one in-memory tile whose box is exact, while
// differently-patterned reads of the same array (e.g. A(i,k) and
// A(j,k) in syr2k) get independent tiles. A written array must have a
// single access-matrix group — otherwise in-memory copies could
// diverge — which Build rejects up front.
package codegen

import (
	"fmt"

	"outcore/internal/core"
	"outcore/internal/deps"
	"outcore/internal/fm"
	"outcore/internal/ir"
	"outcore/internal/layout"
	"outcore/internal/matrix"
	"outcore/internal/obs"
	"outcore/internal/ooc"
	"outcore/internal/tiling"
)

// Options configures schedule construction.
type Options struct {
	Strategy  tiling.Strategy
	MemBudget int64 // elements; 0 = unlimited
	// NoFallback disables the automatic fall-back to traditional tiling
	// when the out-of-core strategy cannot fit the memory budget.
	NoFallback bool
	// DryRun executes the schedule's control structure and I/O
	// accounting (calls, bytes, trace, memory budget) without moving
	// data or evaluating statements — the measurement mode used by the
	// parallel-performance simulator, where only the I/O behaviour and
	// iteration counts matter.
	DryRun bool
	// Engine, when non-nil, routes tile I/O through the concurrent tile
	// engine: group tiles are acquired from its LRU cache (fetched in
	// parallel on a miss), released with write-back dirty tracking, and
	// the next tile's footprints are prefetched while the current tile
	// computes. The engine's tile-count capacity replaces the Memory
	// budget, which is not consulted on this path. The caller owns the
	// engine: Flush/Close it before reading results or I/O stats so
	// dirty cached tiles reach the backend.
	Engine ooc.TileEngine
	// Obs, when it carries a trace, emits one KindCompute span per
	// executed tile (the statement-iteration work between I/O bursts) —
	// the counterpart to the engine's fetch/prefetch spans that makes
	// the compute/I/O overlap visible in the exported timeline. Dry
	// runs execute no compute and emit nothing.
	Obs *obs.Sink
}

// Schedule is an executable tiled out-of-core loop nest.
type Schedule struct {
	Nest *ir.Nest
	Plan *core.NestPlan
	Spec tiling.Spec

	dryRun    bool
	engine    ooc.TileEngine
	trace     *obs.Trace
	traceName string
	bounds    *fm.Bounds
	stmts     []schedStmt
	groups    []*refGroup
	slots     []refSlot
	writes    map[*ir.Array]bool
}

// refGroup is one (array, access matrix) tile group.
type refGroup struct {
	arr  *ir.Array
	m    *matrix.Int // composite access L·Q
	offs [][]int64   // offsets of the member references
}

// refSlot is one statement reference: its group and constant offset.
type refSlot struct {
	group int
	off   []int64
}

// schedStmt binds each statement reference to a slot.
type schedStmt struct {
	st  *ir.Stmt
	in  []int // slots of the reads, in statement order
	out int   // slot of the write
}

// Build constructs the schedule for one nest under a plan.
func Build(n *ir.Nest, np *core.NestPlan, opts Options) (*Schedule, error) {
	if np == nil || np.Nest != n {
		return nil, fmt.Errorf("codegen: plan does not match nest %d", n.ID)
	}
	k := n.Depth()
	lo := make([]int64, k)
	hi := make([]int64, k)
	for i, l := range n.Loops {
		lo[i], hi[i] = l.Lo, l.Hi
	}
	s := &Schedule{Nest: n, Plan: np, writes: map[*ir.Array]bool{}, dryRun: opts.DryRun, engine: opts.Engine}
	if s.trace = opts.Obs.TraceOf(); s.trace != nil {
		s.traceName = fmt.Sprintf("nest-%d", n.ID)
	}
	s.bounds = fm.TransformedBounds(np.Q, lo, hi).Eliminate()

	slotOf := func(r ir.Ref) int {
		gi := -1
		m := r.L.Mul(np.Q)
		for i, g := range s.groups {
			if g.arr == r.Array && g.m.Equal(m) {
				g.offs = append(g.offs, r.Off)
				gi = i
				break
			}
		}
		if gi < 0 {
			s.groups = append(s.groups, &refGroup{arr: r.Array, m: m, offs: [][]int64{r.Off}})
			gi = len(s.groups) - 1
		}
		s.slots = append(s.slots, refSlot{group: gi, off: r.Off})
		return len(s.slots) - 1
	}
	for _, st := range n.Body {
		ss := schedStmt{st: st, out: slotOf(st.Out)}
		for _, r := range st.In {
			ss.in = append(ss.in, slotOf(r))
		}
		s.writes[st.Out.Array] = true
		s.stmts = append(s.stmts, ss)
	}
	// A written array must have exactly one access-matrix group.
	for _, a := range s.writtenArrays() {
		count := 0
		for _, g := range s.groups {
			if g.arr == a {
				count++
			}
		}
		if count > 1 {
			return nil, fmt.Errorf("codegen: nest %d: array %s is written and accessed through %d access patterns; aliased multi-pattern updates are not supported", n.ID, a.Name, count)
		}
	}

	// Tiling legality: the tiled band must be fully permutable under the
	// TRANSFORMED dependences.
	tds := transformDeps(deps.Analyze(n), np.T)
	band := k - 1
	if opts.Strategy == tiling.Traditional {
		band = k
	}
	if !deps.FullyPermutable(tds, 0, band) {
		return nil, fmt.Errorf("codegen: nest %d: tiled band not fully permutable under transformed dependences", n.ID)
	}

	tlo, thi := tiling.TransformedBox(np.T, lo, hi)
	spec, err := tiling.Choose(s.groupAccesses(), tlo, thi, opts.MemBudget, opts.Strategy)
	if err != nil && opts.Strategy == tiling.OutOfCore && !opts.NoFallback {
		// A nest whose innermost loop sweeps too much data for the budget
		// (e.g. many small vectors) falls back to traditional tiling, as
		// a real out-of-core compiler must.
		spec, err = tiling.Choose(s.groupAccesses(), tlo, thi, opts.MemBudget, tiling.Traditional)
	}
	if err != nil {
		return nil, fmt.Errorf("codegen: nest %d: %w", n.ID, err)
	}
	s.Spec = spec
	return s, nil
}

// groupAccesses converts tile groups to the tiling package's per-group
// footprint inputs (one RefAccess per group per member offset; the
// estimator unions offsets within a group key).
func (s *Schedule) groupAccesses() []tiling.RefAccess {
	var out []tiling.RefAccess
	for gi, g := range s.groups {
		for _, off := range g.offs {
			out = append(out, tiling.RefAccess{Array: g.arr, M: g.m, Off: off, Group: gi})
		}
	}
	return out
}

func (s *Schedule) writtenArrays() []*ir.Array {
	var out []*ir.Array
	seen := map[*ir.Array]bool{}
	for _, st := range s.stmts {
		a := st.st.Out.Array
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out
}

// transformDeps maps dependence vectors through T.
func transformDeps(ds []deps.Dependence, t *matrix.Int) []deps.Dependence {
	out := make([]deps.Dependence, 0, len(ds))
	for _, d := range ds {
		if !d.Uniform {
			nd := d
			nd.Dirs = deps.TransformDirs(t, d.Dirs)
			out = append(out, nd)
			continue
		}
		nd := d
		nd.Distance = t.MulVec(d.Distance)
		nd.Dirs = make([]deps.Dir, len(nd.Distance))
		for i, x := range nd.Distance {
			switch {
			case x > 0:
				nd.Dirs[i] = deps.Pos
			case x < 0:
				nd.Dirs[i] = deps.Neg
			default:
				nd.Dirs[i] = deps.Zero
			}
		}
		out = append(out, nd)
	}
	return out
}

// footprintBox returns the clipped bounding box of the group's accesses
// over the tile iteration box [tLo, tHi] (inclusive). Exact for the
// group because all members share the access matrix.
func (g *refGroup) footprintBox(tLo, tHi []int64) layout.Box {
	rank := g.arr.Rank()
	lo := make([]int64, rank)
	hi := make([]int64, rank)
	for d := 0; d < rank; d++ {
		mn, mx := int64(0), int64(0)
		for j := 0; j < g.m.Cols(); j++ {
			c := g.m.At(d, j)
			if c > 0 {
				mn += c * tLo[j]
				mx += c * tHi[j]
			} else {
				mn += c * tHi[j]
				mx += c * tLo[j]
			}
		}
		offLo, offHi := g.offs[0][d], g.offs[0][d]
		for _, off := range g.offs[1:] {
			if off[d] < offLo {
				offLo = off[d]
			}
			if off[d] > offHi {
				offHi = off[d]
			}
		}
		// Half-open, clipped to the array.
		lo[d] = max(mn+offLo, 0)
		hi[d] = max(min(mx+offHi+1, g.arr.Dims[d]), lo[d])
	}
	return layout.Box{Lo: lo, Hi: hi}
}

func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }

// blockRange splits n items into `parts` blocks and returns the
// half-open item range of block `part`.
func blockRange(n, part, parts int64) (from, to int64) {
	base := n / parts
	rem := n % parts
	from = part*base + minI64(part, rem)
	to = from + base
	if part < rem {
		to++
	}
	return from, to
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
