package codegen

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"outcore/internal/core"
	"outcore/internal/ir"
	"outcore/internal/layout"
	"outcore/internal/matrix"
	"outcore/internal/ooc"
	"outcore/internal/suite"
	"outcore/internal/tiling"
)

// withTransform returns a row-major plan that applies loop
// transformation t (unimodular) to every nest of p.
func withTransform(p *ir.Program, t *matrix.Int) *core.Plan {
	plan := core.FixedLayouts(p, func(d []int64) *layout.Layout { return layout.RowMajor(d...) })
	qr, ok := t.Inverse()
	q, isInt := qr.ToInt()
	if !ok || !isInt {
		panic("withTransform: t is not unimodular")
	}
	k := t.Rows()
	qLast := make([]int64, k)
	for r := range qLast {
		qLast[r] = q.At(r, k-1)
	}
	for _, n := range p.Nests {
		plan.Nests[n] = &core.NestPlan{Nest: n, T: t, Q: q, QLast: qLast}
	}
	return plan
}

// guarded is a 2-deep nest whose first statements are sunk and guarded:
// one on a level the innermost loop moves along, one on a level it does
// not, and one on both. Each accumulates into its output, so a guard
// that lets a statement run one time too many shows in the result.
func guarded(n int64) *ir.Program {
	a, c := ir.NewArray("A", n), ir.NewArray("C", n)
	b := ir.NewArray("B", n, n)
	addIv := func(l int) ir.StmtFunc {
		return func(in []float64, iv []int64) float64 { return in[0] + float64(10*iv[l]+1) }
	}
	ai, cj := ir.RefIdx(a, 2, 0), ir.RefIdx(c, 2, 1)
	nest := &ir.Nest{ID: 0, Loops: ir.Rect(n, n), Body: []*ir.Stmt{
		{Out: ai, In: []ir.Ref{ai}, F: addIv(0), Guard: []ir.GuardEq{{Level: 1, Value: 0}}},
		{Out: cj, In: []ir.Ref{cj}, F: addIv(1), Guard: []ir.GuardEq{{Level: 0, Value: 2}}},
		{Out: cj, In: []ir.Ref{cj}, F: addIv(0), Guard: []ir.GuardEq{{Level: 0, Value: 3}, {Level: 1, Value: 4}}},
		ir.Assign(ir.RefIdx(b, 2, 0, 1), []ir.Ref{ir.RefIdx(b, 2, 0, 1), ir.RefIdx(a, 2, 0)}, "", ir.Sum()),
	}}
	return &ir.Program{Name: "guarded", Arrays: []*ir.Array{a, b, c}, Nests: []*ir.Nest{nest}}
}

// transpose2 is B(i,j) = A(j,i) + 1 over an n×n space.
func transpose2(n int64) *ir.Program {
	a, b := ir.NewArray("A", n, n), ir.NewArray("B", n, n)
	return &ir.Program{Name: "transpose2", Arrays: []*ir.Array{a, b}, Nests: []*ir.Nest{
		{ID: 0, Loops: ir.Rect(n, n), Body: []*ir.Stmt{
			ir.Assign(ir.RefIdx(b, 2, 0, 1), []ir.Ref{ir.RefIdx(a, 2, 1, 0)}, "", ir.AddConst(1)),
		}},
	}}
}

// runBoth executes p under plan through the sequential runtime and
// through the tile engine and returns both final stores and stats.
func runBoth(t *testing.T, p *ir.Program, plan *core.Plan, opts Options, init *ir.Store) (seq, eng *ir.Store, seqSt, engSt ExecStats) {
	t.Helper()
	d, err := SetupDisk(p, plan, 16, init)
	if err != nil {
		t.Fatal(err)
	}
	seqSt, err = RunProgram(p, plan, d, ooc.NewMemory(opts.MemBudget), opts)
	if err != nil {
		t.Fatal(err)
	}
	seq = DiskToStore(p, d)

	d, err = SetupDisk(p, plan, 16, init)
	if err != nil {
		t.Fatal(err)
	}
	e := ooc.NewEngine(d, ooc.EngineOptions{Workers: 2, CacheTiles: 6})
	eopts := opts
	eopts.Engine = e
	engSt, err = RunProgram(p, plan, d, ooc.NewMemory(0), eopts)
	if cerr := e.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	return seq, DiskToStore(p, d), seqSt, engSt
}

// TestExecutorPathsEquivalent runs skewed, guarded and edge-clipped
// nests through both executor paths: the stores must be bit-identical
// to each other and to the in-core reference, and the iteration and
// tile counts must agree.
func TestExecutorPathsEquivalent(t *testing.T) {
	skew2 := matrix.FromRows([][]int64{{1, 0}, {1, 1}})
	skew3 := matrix.FromRows([][]int64{{1, 0, 0}, {0, 1, 0}, {1, 0, 1}})
	for _, tc := range []struct {
		name   string
		prog   *ir.Program
		plan   func(*ir.Program) *core.Plan
		budget int64 // elements; small budgets clip edge tiles
		trad   bool  // traditional tiling is legal too
	}{
		{"skewed-transpose", transpose2(11), func(p *ir.Program) *core.Plan { return withTransform(p, skew2) }, 3 * 11, true},
		{"skewed-matmul", matmul(7), func(p *ir.Program) *core.Plan { return withTransform(p, skew3) }, 3 * 7 * 7, true},
		{"guarded-identity", guarded(9), func(p *ir.Program) *core.Plan { return withTransform(p, matrix.Identity(2)) }, 4 * 9, true},
		{"guarded-skewed", guarded(9), func(p *ir.Program) *core.Plan { return withTransform(p, skew2) }, 4 * 9, false},
		{"guarded-c-opt", guarded(10), func(p *ir.Program) *core.Plan { var o core.Optimizer; return o.OptimizeCombined(p) }, 4 * 10, true},
		{"clipped-c-opt-matmul", matmul(13), func(p *ir.Program) *core.Plan { var o core.Optimizer; return o.OptimizeCombined(p) }, 5 * 13, true},
		{"clipped-c-opt-motivating", motivating(13), func(p *ir.Program) *core.Plan { var o core.Optimizer; return o.OptimizeCombined(p) }, 2 * 13, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan := tc.plan(tc.prog)
			init := seedStore(tc.prog, 3)
			ref := init.Clone()
			tc.prog.Execute(ref)
			strats := []tiling.Strategy{tiling.OutOfCore}
			if tc.trad {
				strats = append(strats, tiling.Traditional)
			}
			for _, strat := range strats {
				opts := Options{Strategy: strat, MemBudget: tc.budget}
				seq, eng, ss, es := runBoth(t, tc.prog, plan, opts, init)
				if ss != es {
					t.Errorf("%s: sequential %+v, engine %+v", strat, ss, es)
				}
				for _, a := range tc.prog.Arrays {
					if diff := ir.MaxAbsDiff(ref, seq, a); diff != 0 {
						t.Errorf("%s: %s differs from the reference by %g", strat, a.Name, diff)
					}
					ds, de := seq.Data(a), eng.Data(a)
					for i := range ds {
						if math.Float64bits(ds[i]) != math.Float64bits(de[i]) {
							t.Errorf("%s: %s[%d]: sequential %v, engine %v", strat, a.Name, i, ds[i], de[i])
							break
						}
					}
				}
			}
		})
	}
}

// TestExecutorClipsEdgeTiles pins that the clipped cases above really
// have partial tiles: the iteration space is not a multiple of the
// chosen tile sizes.
func TestExecutorClipsEdgeTiles(t *testing.T) {
	p := matmul(13)
	var o core.Optimizer
	plan := o.OptimizeCombined(p)
	s, err := Build(p.Nests[0], plan.Nests[p.Nests[0]], Options{Strategy: tiling.OutOfCore, MemBudget: 5 * 13})
	if err != nil {
		t.Fatal(err)
	}
	clipped := false
	for lvl := range s.Spec.Sizes {
		if ext := s.Spec.Hi[lvl] - s.Spec.Lo[lvl] + 1; ext%s.Spec.Sizes[lvl] != 0 {
			clipped = true
		}
	}
	if !clipped {
		t.Fatalf("tile sizes %v divide the space [%v, %v]", s.Spec.Sizes, s.Spec.Lo, s.Spec.Hi)
	}
}

// TestReferenceOutsideTilePanics shifts one reference past the tile
// footprint its group was read with: both executor paths must panic
// from the span endpoint check rather than read a neighbouring row.
func TestReferenceOutsideTilePanics(t *testing.T) {
	const n = 8
	p := transpose2(n)
	plan := withTransform(p, matrix.Identity(2))
	for _, useEngine := range []bool{false, true} {
		t.Run(fmt.Sprintf("engine=%v", useEngine), func(t *testing.T) {
			d, err := SetupDisk(p, plan, 16, seedStore(p, 1))
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{Strategy: tiling.OutOfCore, MemBudget: 4 * n}
			var e *ooc.Engine
			if useEngine {
				e = ooc.NewEngine(d, ooc.EngineOptions{Workers: 1, CacheTiles: 4})
				defer e.Abandon()
				opts.Engine = e
			}
			s, err := Build(p.Nests[0], plan.Nests[p.Nests[0]], opts)
			if err != nil {
				t.Fatal(err)
			}
			// The read A(j, i): move it one element along the array's
			// fast dimension, past the footprint box.
			in := s.stmts[0].in[0]
			s.slots[in].off = []int64{0, 1}
			defer func() {
				r := recover()
				if r == nil || !strings.Contains(fmt.Sprint(r), "outside tile") {
					t.Fatalf("got %v, want an outside-tile panic", r)
				}
			}()
			s.Execute(d, ooc.NewMemory(opts.MemBudget))
		})
	}
}

// BenchmarkExecute measures the executor on the c-opt kernels through
// the tile engine over an in-memory disk, per statement iteration.
func BenchmarkExecute(b *testing.B) {
	for _, name := range []string{"mxm", "syr2k", "trans"} {
		b.Run(name, func(b *testing.B) {
			k, _ := suite.ByName(name)
			p := k.Build(suite.Config{N2: 64, N3: 16, N4: 6})
			plan, err := suite.PlanFor(p, suite.COpt)
			if err != nil {
				b.Fatal(err)
			}
			opts := Options{Strategy: suite.StrategyFor(suite.COpt), MemBudget: suite.MemBudget(p, 128)}
			init := seedStore(p, 1)
			d, err := SetupDisk(p, plan, 64, init)
			if err != nil {
				b.Fatal(err)
			}
			var iters int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := ooc.NewEngine(d, ooc.EngineOptions{Workers: 2, CacheTiles: 8})
				o := opts
				o.Engine = e
				st, err := RunProgram(p, plan, d, ooc.NewMemory(o.MemBudget), o)
				if cerr := e.Close(); err == nil {
					err = cerr
				}
				if err != nil {
					b.Fatal(err)
				}
				iters += st.Iterations
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(iters), "ns/iteration")
		})
	}
}
