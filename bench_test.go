// Benchmarks regenerating the paper's evaluation artifacts. One
// benchmark family per table/figure; custom metrics report the
// simulated quantities (sim-seconds, I/O calls) alongside the usual
// wall-clock numbers.
//
//	go test -bench=Table2 -benchmem         # Table 2 rows
//	go test -bench=Table3 -benchmem         # Table 3 speedups
//	go test -bench=Figure -benchmem         # Figures 1-3
//	go test -bench=. -benchmem              # everything
package outcore_test

import (
	"fmt"
	"testing"

	"outcore/internal/codegen"
	"outcore/internal/core"
	"outcore/internal/exp"
	"outcore/internal/fm"
	"outcore/internal/ir"
	"outcore/internal/layout"
	"outcore/internal/matrix"
	"outcore/internal/obs"
	"outcore/internal/ooc"
	"outcore/internal/pfs"
	"outcore/internal/sim"
	"outcore/internal/suite"
	"outcore/internal/tiling"
)

// benchCfg keeps the benchmark matrix affordable while preserving the
// paper's relative geometry (stripe = 2*N, 1/128 memory).
var benchCfg = suite.Config{N2: 128, N3: 16, N4: 6}

func benchSetup(k suite.Kernel, v suite.Version, procs int) sim.Setup {
	return sim.Setup{
		Kernel:  k,
		Cfg:     benchCfg,
		Version: v,
		Procs:   procs,
		PFS:     exp.ScaledPFS(benchCfg.N2, 64),
	}
}

// BenchmarkTable2 regenerates one Table-2 cell per sub-benchmark:
// kernel x version on 16 processors. The reported "sim-seconds" metric
// is the simulated execution time (the paper's measured quantity);
// "io-calls" the I/O call count.
func BenchmarkTable2(b *testing.B) {
	for _, k := range suite.Kernels {
		for _, v := range suite.Versions {
			b.Run(fmt.Sprintf("%s/%s", k.Name, v), func(b *testing.B) {
				var m sim.Measurement
				var err error
				for i := 0; i < b.N; i++ {
					m, err = sim.Run(benchSetup(k, v, 16))
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(m.Seconds, "sim-seconds")
				b.ReportMetric(float64(m.Calls), "io-calls")
			})
		}
	}
}

// BenchmarkTable3 regenerates the Table-3 speedup series for every
// kernel under the col and c-opt versions (the extremes of the paper's
// comparison) at 16..128 processors.
func BenchmarkTable3(b *testing.B) {
	procCounts := []int{16, 32, 64, 128}
	for _, k := range suite.Kernels {
		for _, v := range []suite.Version{suite.Col, suite.COpt} {
			b.Run(fmt.Sprintf("%s/%s", k.Name, v), func(b *testing.B) {
				var sp map[int]float64
				var err error
				for i := 0; i < b.N; i++ {
					sp, err = sim.Speedups(benchSetup(k, v, 1), procCounts)
					if err != nil {
						b.Fatal(err)
					}
				}
				for _, p := range procCounts {
					b.ReportMetric(sp[p], fmt.Sprintf("speedup-%dp", p))
				}
			})
		}
	}
}

// BenchmarkFigure1 measures the Step-1/Step-2 pipeline: normalization
// of the Figure-1 trees plus interference-graph components.
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Figure1(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2 measures layout offset/run computation across the
// Figure-2 layout gallery.
func BenchmarkFigure2(b *testing.B) {
	layouts := []*layout.Layout{
		layout.RowMajor(512, 512),
		layout.ColMajor(512, 512),
		layout.Diagonal(512, 512),
		layout.AntiDiagonal(512, 512),
		layout.Blocked(512, 512, 64, 64),
	}
	box := layout.NewBox([]int64{100, 100}, []int64{200, 200})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, l := range layouts {
			if len(l.Runs(box)) == 0 {
				b.Fatal("no runs")
			}
		}
	}
}

// BenchmarkFigure3 regenerates the Figure-3 call-count contrast.
func BenchmarkFigure3(b *testing.B) {
	var res exp.Figure3Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = exp.Figure3()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.TraditionalTileCalls), "trad-tile-calls")
	b.ReportMetric(float64(res.OOCTileCalls), "ooc-tile-calls")
	b.ReportMetric(float64(res.ProgramTraditional), "trad-program-calls")
	b.ReportMetric(float64(res.ProgramOOC), "ooc-program-calls")
}

// BenchmarkOptimizer measures the compiler itself: the combined
// algorithm over every Table-1 kernel.
func BenchmarkOptimizer(b *testing.B) {
	for _, k := range suite.Kernels {
		b.Run(k.Name, func(b *testing.B) {
			prog := k.Build(benchCfg)
			var o core.Optimizer
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if plan := o.OptimizeCombined(prog); plan == nil {
					b.Fatal("nil plan")
				}
			}
		})
	}
}

// BenchmarkTileIO measures the out-of-core runtime's tile read+write
// path for matched and mismatched layouts — the micro-mechanism behind
// every table — and a diagonal layout, whose inverse is a search.
func BenchmarkTileIO(b *testing.B) {
	const n = 512
	meta := ir.NewArray("A", n, n)
	for _, tc := range []struct {
		name string
		l    *layout.Layout
	}{
		{"row-major", layout.RowMajor(n, n)},
		{"col-major", layout.ColMajor(n, n)},
		{"diagonal", layout.Diagonal(n, n)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			d := ooc.NewDisk(8192)
			arr, err := d.CreateArray(meta, tc.l)
			if err != nil {
				b.Fatal(err)
			}
			box := layout.NewBox([]int64{0, 0}, []int64{8, n})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tile, err := arr.ReadTile(box)
				if err != nil {
					b.Fatal(err)
				}
				if err := tile.WriteTile(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(d.Stats.Calls())/float64(2*b.N), "calls/tile")
		})
	}
}

// BenchmarkFM measures transformed-bounds enumeration, the code
// generator's inner machinery.
func BenchmarkFM(b *testing.B) {
	q := matrix.FromRows([][]int64{{0, 1}, {1, 0}})
	bounds := fm.TransformedBounds(q, []int64{0, 0}, []int64{255, 255}).Eliminate()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if bounds.Count() != 256*256 {
			b.Fatal("bad count")
		}
	}
}

// BenchmarkPFS measures the discrete-event simulator on a contended
// 128-processor workload.
func BenchmarkPFS(b *testing.B) {
	cfg := pfs.DefaultConfig()
	procs := make([]pfs.ProcWorkload, 128)
	for p := range procs {
		for o := 0; o < 64; o++ {
			procs[p].Ops = append(procs[p].Ops, pfs.Call("A", int64(p*64+o)*512, 512, o%4 == 3))
		}
		procs[p].ComputeSeconds = 0.5
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pfs.Simulate(cfg, procs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStorageReduction measures the Section-3.4 shear search.
func BenchmarkStorageReduction(b *testing.B) {
	m := matrix.FromRows([][]int64{{3, 2}, {2, 0}})
	for i := 0; i < b.N; i++ {
		if _, before, after := core.ReduceStorage(m, []int64{4096, 4096}); after >= before {
			b.Fatal("no reduction")
		}
	}
}

// BenchmarkEndToEnd measures a real (non-dry) out-of-core execution of
// the quickstart program under the c-opt plan, including data movement.
func BenchmarkEndToEnd(b *testing.B) {
	const n = 128
	u := ir.NewArray("U", n, n)
	v := ir.NewArray("V", n, n)
	w := ir.NewArray("W", n, n)
	prog := &ir.Program{
		Name:   "bench",
		Arrays: []*ir.Array{u, v, w},
		Nests: []*ir.Nest{
			{ID: 0, Loops: ir.Rect(n, n), Body: []*ir.Stmt{
				ir.Assign(ir.RefIdx(u, 2, 0, 1), []ir.Ref{ir.RefIdx(v, 2, 1, 0)}, "", ir.AddConst(1)),
			}},
			{ID: 1, Loops: ir.Rect(n, n), Body: []*ir.Stmt{
				ir.Assign(ir.RefIdx(v, 2, 0, 1), []ir.Ref{ir.RefIdx(w, 2, 1, 0)}, "", ir.AddConst(2)),
			}},
		},
	}
	var o core.Optimizer
	plan := o.OptimizeCombined(prog)
	budget := suite.MemBudget(prog, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := codegen.SetupDisk(prog, plan, 8192, nil)
		if err != nil {
			b.Fatal(err)
		}
		mem := ooc.NewMemory(budget)
		if _, err := codegen.RunProgram(prog, plan, d, mem, codegen.Options{
			Strategy: tiling.OutOfCore, MemBudget: budget,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineObs measures the observability tax on a data-backed
// mxm run through the concurrent tile engine: "bare" has no sink (the
// nil-guard fast path, required to stay within 2% of pre-obs cost and
// allocation-free in the emit path), "sink" records every span into a
// trace ring plus the metrics registry.
func BenchmarkEngineObs(b *testing.B) {
	k, ok := suite.ByName("mxm")
	if !ok {
		b.Fatal("mxm kernel missing")
	}
	cfg := suite.Config{N2: 64, N3: 12, N4: 4}
	run := func(b *testing.B, sink *obs.Sink) {
		prog := k.Build(cfg)
		plan, err := suite.PlanFor(prog, suite.COpt)
		if err != nil {
			b.Fatal(err)
		}
		budget := suite.MemBudget(prog, 128)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d, err := codegen.SetupDisk(prog, plan, 2*cfg.N2, nil)
			if err != nil {
				b.Fatal(err)
			}
			d.Observe(sink)
			eng := ooc.NewEngine(d, ooc.EngineOptions{CacheTiles: 8, Obs: sink})
			opts := codegen.Options{
				Strategy: tiling.OutOfCore, MemBudget: budget, Engine: eng, Obs: sink,
			}
			mem := ooc.NewMemory(budget)
			if _, err := codegen.RunProgram(prog, plan, d, mem, opts); err != nil {
				b.Fatal(err)
			}
			if err := eng.Close(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("bare", func(b *testing.B) { run(b, nil) })
	b.Run("sink", func(b *testing.B) {
		run(b, &obs.Sink{Trace: obs.NewTrace(obs.DefaultTraceCap), Metrics: obs.NewRegistry()})
	})
}
