package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"outcore/internal/codegen"
	"outcore/internal/core"
	"outcore/internal/exp"
	"outcore/internal/ir"
	"outcore/internal/layout"
	"outcore/internal/ooc"
	"outcore/internal/sim"
	"outcore/internal/suite"
)

// The kernel workload runs the paper's compiler-optimized (c-opt)
// kernels for real on file-backed disks, with memory at 1/128 of the
// data as in the paper, plus the 16-processor PFS simulation of the
// same programs.
var kernelNames = []string{"mxm", "syr2k", "trans"}

const (
	kernelN2      = 96  // 2-D extent: one round of the three kernels takes ~0.7 s
	kernelMemFrac = 128 // memory budget = data / 128
	kernelProcs   = 16  // simulated processors
	// The engine caches 8 footprint tiles, each sized by the memory
	// budget, and prefetches with 4 workers (occbench's engine+prefetch).
	kernelCacheTiles = 8
	kernelWorkers    = 4
	// checkBand is the row band the inputs are written in (the
	// workload's "put") and the checker reads results back in (its
	// "scan"): each band is one layout-ordered stripe write or read.
	checkBand = 4
)

// kernelCase is one kernel's program, plan, disk and reference result.
type kernelCase struct {
	k          suite.Kernel
	prog       *ir.Program
	plan       *core.Plan
	opts       codegen.Options
	budget     int64
	init, ref  *ir.Store
	disk       *ooc.Disk
	bh         *backendHook
	compulsory int64 // bytes: every array read once, every written array written once
	optimizeMs float64
}

func kernelConfig() suite.Config { return suite.Config{N2: kernelN2, N3: 16, N4: 6} }

// kernelInputs builds each kernel's program, seeded initial contents
// and in-core reference result (the interpreter's execution of the
// program). It belongs to the checker, so it runs once, outside the
// timed set-up.
func kernelInputs(seed int64) ([]*kernelCase, error) {
	var out []*kernelCase
	for i, name := range kernelNames {
		k, ok := suite.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown kernel %s", name)
		}
		kc := &kernelCase{k: k, prog: k.Build(kernelConfig())}
		kc.init = ir.NewStore(kc.prog.Arrays...)
		rng := rand.New(rand.NewSource(seed*31 + int64(i)))
		for _, a := range kc.prog.Arrays {
			d := kc.init.Data(a)
			for j := range d {
				d[j] = rng.Float64()
			}
		}
		kc.ref = kc.init.Clone()
		kc.prog.Execute(kc.ref)
		read, written := map[*ir.Array]bool{}, map[*ir.Array]bool{}
		for _, n := range kc.prog.Nests {
			for _, st := range n.Body {
				written[st.Out.Array] = true
				for _, r := range st.In {
					read[r.Array] = true
				}
			}
		}
		for _, a := range kc.prog.Arrays {
			if read[a] {
				kc.compulsory += a.Len() * ooc.ElemSize
			}
			if written[a] {
				kc.compulsory += a.Len() * ooc.ElemSize
			}
		}
		out = append(out, kc)
	}
	return out, nil
}

// setUpKernels is the out-of-core set-up: it runs the optimizer and
// lays every kernel's arrays out on a fresh file-backed disk loaded
// with the initial contents.
func setUpKernels(cases []*kernelCase, dir string, t *tracer) error {
	for i, kc := range cases {
		t0 := time.Now()
		plan, err := suite.PlanFor(kc.prog, suite.COpt)
		if err != nil {
			return err
		}
		kc.optimizeMs = float64(time.Since(t0).Nanoseconds()) / 1e6
		kc.plan = plan
		kc.budget = suite.MemBudget(kc.prog, kernelMemFrac)
		kc.opts = codegen.Options{Strategy: suite.StrategyFor(suite.COpt), MemBudget: kc.budget}
		kdir := filepath.Join(dir, kc.k.Name)
		if err := os.MkdirAll(kdir, 0o755); err != nil {
			return err
		}
		kc.bh = &backendHook{t: t, node: int16(i)}
		d := ooc.NewDisk(exp.ScaledPFS(kernelN2, 64).StripeElems).Dir(kdir).WrapBackend(kc.bh.wrap)
		if _, err := codegen.SetupDiskOn(d, kc.prog, plan, kc.init); err != nil {
			d.Close()
			return err
		}
		kc.disk = d
	}
	return nil
}

func closeKernels(cases []*kernelCase) error {
	var first error
	for _, kc := range cases {
		if kc.disk != nil {
			if err := kc.disk.Close(); err != nil && first == nil {
				first = err
			}
			kc.disk = nil
		}
	}
	return first
}

// kernelTimes collects the latencies, in ms, of the fixed-shape tile
// operations around each round: band writes of the inputs (put), band
// reads (get) and whole-array reads (scan) of the results. Their
// shapes do not depend on the plan's tiling.
type kernelTimes struct {
	get, put, scan []float64
}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }

// kernelRound is what one execution of the three kernels observed.
type kernelRound struct {
	wall     time.Duration // kernel execution, engine flush included
	cpu      float64       // process CPU seconds during execution
	ioCalls  int64
	ioBytes  int64
	tileOps  int64 // band writes, band reads and array reads
	eng      ooc.EngineStats
	checkErr error
}

// runRound reloads the initial contents, runs every kernel through a
// fresh engine, and checks the results against the reference.
func runRound(cases []*kernelCase, t *tracer, lat *kernelTimes, corrupt bool) (kernelRound, error) {
	var r kernelRound
	fail := func(err error) {
		if r.checkErr == nil {
			r.checkErr = err
		}
	}
	for i, kc := range cases {
		n, err := writeInputs(kc, lat)
		r.tileOps += n
		if err != nil {
			return r, err
		}
		st0 := kc.disk.Stats.Snapshot()
		eng := &engineHook{TileEngine: ooc.NewEngine(kc.disk, ooc.EngineOptions{Workers: kernelWorkers, CacheTiles: kernelCacheTiles}), t: t, node: int16(i)}
		opts := kc.opts
		opts.Engine = eng
		cpu0, t0 := cpuSeconds(), time.Now()
		_, err = codegen.RunProgram(kc.prog, kc.plan, kc.disk, ooc.NewMemory(kc.budget), opts)
		if cerr := eng.Close(); err == nil {
			err = cerr
		}
		r.wall += time.Since(t0)
		r.cpu += cpuSeconds() - cpu0
		if err != nil {
			return r, fmt.Errorf("%s: %w", kc.k.Name, err)
		}
		st1 := kc.disk.Stats.Snapshot()
		r.ioCalls += st1.Calls() - st0.Calls()
		r.ioBytes += st1.Bytes() - st0.Bytes()
		r.eng = engineSum(r.eng, eng.Stats())
		got, err := readBackKernel(kc, lat)
		r.tileOps += int64(len(kc.prog.Arrays))
		if err != nil {
			return r, err
		}
		if corrupt && i == 0 {
			d := got.Data(kc.prog.Arrays[0])
			d[0] = math.Float64frombits(math.Float64bits(d[0]) ^ 1)
		}
		for _, a := range kc.prog.Arrays {
			if diff := ir.MaxAbsDiff(kc.ref, got, a); diff != 0 {
				fail(fmt.Errorf("%s: array %s differs from the in-core reference by %g", kc.k.Name, a.Name, diff))
			}
		}
		n, err = checkBands(kc, lat, fail)
		r.tileOps += n
		if err != nil {
			return r, err
		}
	}
	return r, nil
}

// bands cuts an array into layout-ordered boxes of checkBand rows.
func bands(a *ir.Array) []layout.Box {
	var out []layout.Box
	for lo := int64(0); lo < a.Dims[0]; lo += checkBand {
		blo := make([]int64, len(a.Dims))
		bhi := append([]int64(nil), a.Dims...)
		blo[0], bhi[0] = lo, min(lo+checkBand, a.Dims[0])
		out = append(out, layout.NewBox(blo, bhi))
	}
	return out
}

// wholeBox is the box of the whole array.
func wholeBox(a *ir.Array) layout.Box {
	return layout.NewBox(make([]int64, len(a.Dims)), append([]int64(nil), a.Dims...))
}

// writeInputs loads the kernel's initial contents onto its disk in
// bands of checkBand rows, timing each band write, and returns the
// number of writes.
func writeInputs(kc *kernelCase, lat *kernelTimes) (int64, error) {
	var n int64
	for _, a := range kc.prog.Arrays {
		ar := kc.disk.ArrayOf(a)
		for _, box := range bands(a) {
			tile := ar.NewTileZero(box)
			forEachCoord(box, func(c []int64) { tile.Set(c, kc.init.Get(a, c)) })
			t0 := time.Now()
			err := tile.WriteTile()
			lat.put = append(lat.put, msSince(t0))
			n++
			if err != nil {
				return n, fmt.Errorf("%s: writing %s: %w", kc.k.Name, a.Name, err)
			}
		}
	}
	return n, nil
}

// readBackKernel reads every array of the kernel from its disk whole,
// timing each read.
func readBackKernel(kc *kernelCase, lat *kernelTimes) (*ir.Store, error) {
	got := ir.NewStore(kc.prog.Arrays...)
	for _, a := range kc.prog.Arrays {
		box := wholeBox(a)
		t0 := time.Now()
		tile, err := kc.disk.ArrayOf(a).ReadTile(box)
		lat.scan = append(lat.scan, msSince(t0))
		if err != nil {
			return nil, fmt.Errorf("%s: reading %s back: %w", kc.k.Name, a.Name, err)
		}
		forEachCoord(box, func(c []int64) { got.Set(a, c, tile.Get(c)) })
	}
	return got, nil
}

// checkBands reads every array of the kernel from its disk in bands of
// checkBand rows, timing each read, reports every band that is not
// bit-equal to the reference to fail, and returns the number of reads.
func checkBands(kc *kernelCase, lat *kernelTimes, fail func(error)) (int64, error) {
	var n int64
	for _, a := range kc.prog.Arrays {
		ar := kc.disk.ArrayOf(a)
		for _, box := range bands(a) {
			t0 := time.Now()
			tile, err := ar.ReadTile(box)
			lat.get = append(lat.get, msSince(t0))
			n++
			if err != nil {
				return n, fmt.Errorf("%s: reading %s back: %w", kc.k.Name, a.Name, err)
			}
			bad := false
			forEachCoord(box, func(c []int64) {
				bad = bad || math.Float64bits(tile.Get(c)) != math.Float64bits(kc.ref.Get(a, c))
			})
			if bad {
				fail(fmt.Errorf("%s: band %v of array %s differs from the in-core reference", kc.k.Name, box, a.Name))
			}
		}
	}
	return n, nil
}

// forEachCoord visits every coordinate of box in row-major order.
func forEachCoord(box layout.Box, f func(c []int64)) {
	if box.Empty() {
		return
	}
	c := append([]int64(nil), box.Lo...)
	for {
		f(c)
		d := len(c) - 1
		for d >= 0 {
			c[d]++
			if c[d] < box.Hi[d] {
				break
			}
			c[d] = box.Lo[d]
			d--
		}
		if d < 0 {
			return
		}
	}
}

// runRounds runs rounds until d has passed (at least one) and appends
// them to *all, so that every round's check counts in the verdict.
func runRounds(all *[]kernelRound, cases []*kernelCase, d time.Duration, t *tracer, lat *kernelTimes, corrupt bool) ([]kernelRound, error) {
	var rounds []kernelRound
	start := time.Now()
	for len(rounds) == 0 || time.Since(start) < d {
		r, err := runRound(cases, t, lat, corrupt && len(rounds) == 0)
		*all = append(*all, r)
		if err != nil {
			return rounds, err
		}
		rounds = append(rounds, r)
	}
	return rounds, nil
}

// roundRate is the median over rounds of rounds of the three kernels
// per second of kernel wall time. A round is a fixed amount of work,
// whatever the plan's tiling.
func roundRate(rounds []kernelRound) float64 {
	var xs []float64
	for _, r := range rounds {
		xs = append(xs, 1/r.wall.Seconds())
	}
	return median(xs)
}

func runKernel(cfg runConfig) (result, error) {
	res := result{metrics: map[string]float64{}}
	var t *tracer
	if cfg.trace {
		t = newTracer()
	}
	cases, err := kernelInputs(cfg.seed)
	if err != nil {
		return res, err
	}
	base := filepath.Join(cfg.workDir, "data-"+strconv.Itoa(os.Getpid()))
	var optimizeMs []float64
	var dir string // the kept set-up's data directory
	_, setupS, err := timeSetups(func(rep int) ([]*kernelCase, error) {
		dir = filepath.Join(base, "kernel-"+strconv.Itoa(rep))
		err := setUpKernels(cases, dir, t)
		var sum float64
		for _, kc := range cases {
			sum += kc.optimizeMs
		}
		optimizeMs = append(optimizeMs, sum)
		if err != nil {
			closeKernels(cases)
		}
		return cases, err
	}, func(cs []*kernelCase) error {
		err := closeKernels(cs)
		removeAll(dir)
		return err
	})
	defer closeKernels(cases)
	if err != nil {
		return res, err
	}
	var all []kernelRound
	lat := &kernelTimes{}
	// Warm-up: one round, so page cache and lazy set-up are settled.
	if _, err := runRounds(&all, cases, 0, nil, &kernelTimes{}, false); err != nil {
		return res, err
	}
	measure := time.Duration(cfg.seconds * float64(time.Second))
	m := res.metrics
	if !cfg.trace {
		heap := startHeapSampler()
		rounds, err := runRounds(&all, cases, measure, nil, lat, cfg.corrupt)
		m["heap_peak_mb"] = heap.Stop()
		if err != nil {
			return res, err
		}
		var cpu float64
		for _, r := range rounds {
			cpu += r.cpu
		}
		m["setup_s"] = setupS
		m["throughput_ops_s"] = roundRate(rounds)
		m["cpu_us_per_op"] = cpu * 1e6 / float64(len(rounds))
		m["get_p50_ms"] = percentile(lat.get, 0.5)
		m["get_p90_ms"] = percentile(lat.get, 0.9)
		m["put_p50_ms"] = percentile(lat.put, 0.5)
		m["put_p90_ms"] = percentile(lat.put, 0.9)
		m["scan_p50_ms"] = percentile(lat.scan, 0.5)
		m["scan_p90_ms"] = percentile(lat.scan, 0.9)
		var stored, logical int64
		for _, kc := range cases {
			b, err := storedBytes(filepath.Join(dir, kc.k.Name))
			if err != nil {
				return res, err
			}
			stored += b
			for _, a := range kc.prog.Arrays {
				logical += a.Len() * ooc.ElemSize
			}
		}
		m["stored_bytes_per_user_byte"] = ratio(float64(stored), float64(logical))
	} else if err := tracedKernel(cfg, m, &all, cases, measure, t, optimizeMs); err != nil {
		return res, err
	}
	var checkErr error
	for _, r := range all {
		res.attempted += 1 + r.tileOps
		if r.checkErr != nil {
			res.failed++
			if checkErr == nil {
				checkErr = fmt.Errorf("%w: %v", errCheck, r.checkErr)
			}
		}
	}
	res.correct = checkErr == nil
	if !cfg.trace {
		m["ok_frac"] = ratio(float64(res.attempted-res.failed), float64(res.attempted))
	}
	return res, checkErr
}

// tracedKernel runs the kernel workload's traced measurement: three
// quarters of the window with the hooks idle, the last quarter with
// spans recorded, then the simulation and the codec timings. On this
// workload an op of the per-layer metrics is one round of the three
// kernels.
func tracedKernel(cfg runConfig, m map[string]float64, all *[]kernelRound, cases []*kernelCase, measure time.Duration, t *tracer, optimizeMs []float64) error {
	g0 := readGoCounters()
	plainLat := &kernelTimes{}
	plain, err := runRounds(all, cases, measure-measure/4, nil, plainLat, false)
	if err != nil {
		return err
	}
	g1 := readGoCounters()
	m["bench.get_p99_ms"] = percentile(plainLat.get, 0.99)
	m["bench.put_p99_ms"] = percentile(plainLat.put, 0.99)
	m["bench.scan_p99_ms"] = percentile(plainLat.scan, 0.99)
	for _, kc := range cases {
		kc.bh.resetCounts()
	}
	t.on.Store(true)
	t0 := t.now()
	rounds, err := runRounds(all, cases, measure/4, t, &kernelTimes{}, false)
	wall := time.Duration(t.now() - t0)
	t.on.Store(false)
	if err != nil {
		return err
	}
	spans := t.take()
	n := int64(len(rounds))
	var eng ooc.EngineStats
	var walls, calls, mbs []float64
	for _, r := range rounds {
		eng = engineSum(eng, r.eng)
		walls = append(walls, r.wall.Seconds())
		calls = append(calls, float64(r.ioCalls))
		mbs = append(mbs, float64(r.ioBytes)/1e6)
	}
	spanMetrics(m, spans, n, wall, layerServer)
	engineMetrics(m, eng, n)
	goMetrics(m, g0, g1, int64(len(plain)))
	var bReads, bWrites int64
	var syncs []float64
	var compulsory int64
	for _, kc := range cases {
		bReads += kc.bh.reads.Load()
		bWrites += kc.bh.writes.Load()
		syncs = append(syncs, kc.bh.syncMs...)
		compulsory += kc.compulsory
	}
	m["ooc.backend.read_calls_per_op"] = ratio(float64(bReads), float64(n))
	m["ooc.backend.write_calls_per_op"] = ratio(float64(bWrites), float64(n))
	m["ooc.backend.sync_ms_p50"] = percentile(syncs, 0.5)
	m["core.optimize_ms"] = median(optimizeMs)
	m["codegen.kernel_wall_s"] = median(walls)
	m["codegen.io_calls"] = median(calls)
	m["codegen.io_mb"] = median(mbs)
	m["codegen.io_over_compulsory"] = ratio(median(mbs)*1e6, float64(compulsory))
	var payloads [][]float64
	for _, kc := range cases {
		for _, a := range kc.prog.Arrays {
			d := kc.init.Data(a)
			for off := 0; off+1024 <= len(d); off += 1024 {
				payloads = append(payloads, d[off:off+1024])
			}
		}
	}
	m["ooc.codec.encode_mb_s"], m["ooc.codec.decode_mb_s"] = codecRates(payloads)
	if err := simMetrics(m, cases); err != nil {
		return err
	}
	m["bench.trace_overhead_frac"] = 1 - ratio(roundRate(rounds), roundRate(plain))
	return writeTrace(cfg, spans)
}

// simMetrics runs the 16-processor PFS simulation of each kernel (the
// paper's Table-2 configuration at this extent) and fills the sim and
// pfs metrics, summed or pooled over the three kernels.
func simMetrics(m map[string]float64, cases []*kernelCase) error {
	var makespan, maxBusy, meanBusy float64
	var calls int64
	for _, kc := range cases {
		meas, pr, err := sim.RunDetailed(sim.Setup{
			Kernel: kc.k, Cfg: kernelConfig(), Version: suite.COpt, Procs: kernelProcs,
			MemFrac: kernelMemFrac, PFS: exp.ScaledPFS(kernelN2, 64),
		})
		if err != nil {
			return fmt.Errorf("sim %s: %w", kc.k.Name, err)
		}
		makespan += meas.Seconds
		calls += meas.Calls
		maxBusy += pr.MaxNodeBusy()
		var sum float64
		for _, b := range pr.NodeBusy {
			sum += b
		}
		if len(pr.NodeBusy) > 0 {
			meanBusy += sum / float64(len(pr.NodeBusy))
		}
	}
	m["sim.makespan_s"] = makespan
	m["sim.io_calls"] = float64(calls)
	m["pfs.max_node_busy_s"] = maxBusy
	m["pfs.node_busy_imbalance"] = ratio(maxBusy, meanBusy)
	return nil
}
