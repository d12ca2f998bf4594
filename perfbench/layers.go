package main

import (
	"sort"
	"time"

	"outcore/internal/ooc"
)

// perLayer lists the traced run's metrics with their units, in print
// order. A metric that does not apply to a workload (cluster metrics
// on a single node, kernel metrics on a server) prints 0; README.md
// maps each one to the workloads where it applies.
var perLayer = []struct{ name, unit string }{
	{"server.get_handler_us_p50", "us"},
	{"server.put_handler_us_p50", "us"},
	{"server.scan_handler_us_p50", "us"},
	{"server.outside_handler_us_p50", "us"},
	{"server.rejected_per_kop", "count/kop"},
	{"server.coalesced_per_kop", "count/kop"},
	{"ooc.engine.acquire_us_p50", "us"},
	{"ooc.engine.acquire_us_p99", "us"},
	{"ooc.engine.self_us_per_op", "us"},
	{"ooc.engine.hit_rate", "ratio"},
	{"ooc.engine.evictions_per_op", "count/op"},
	{"ooc.engine.writebacks_per_op", "count/op"},
	{"ooc.engine.prefetch_useful_frac", "ratio"},
	{"ooc.codec.encode_mb_s", "MB/s"},
	{"ooc.codec.decode_mb_s", "MB/s"},
	{"ooc.codec.disk_ratio", "ratio"},
	{"ooc.codec.wire_ratio", "ratio"},
	{"ooc.wal.commits_per_fsync", "ratio"},
	{"ooc.wal.fsyncs_per_put", "ratio"},
	{"ooc.wal.appended_bytes_per_user_byte", "ratio"},
	{"ooc.backend.read_calls_per_op", "count/op"},
	{"ooc.backend.write_calls_per_op", "count/op"},
	{"ooc.backend.sync_ms_p50", "ms"},
	{"ooc.backend.bytes_written_per_user_byte", "ratio"},
	{"ooc.backend.busy_frac", "ratio"},
	{"cluster.router_us_p50", "us"},
	{"cluster.router_self_us_p50", "us"},
	{"cluster.node_us_p50", "us"},
	{"cluster.node_reqs_per_op", "count/op"},
	{"cluster.node_conns_per_kop", "count/kop"},
	{"cluster.read_repairs_per_kop", "count/kop"},
	{"core.optimize_ms", "ms"},
	{"codegen.kernel_wall_s", "s"},
	{"codegen.io_calls", "count"},
	{"codegen.io_mb", "MB"},
	{"codegen.io_over_compulsory", "ratio"},
	{"sim.makespan_s", "sim_s"},
	{"sim.io_calls", "count"},
	{"pfs.max_node_busy_s", "sim_s"},
	{"pfs.node_busy_imbalance", "ratio"},
	{"go.allocs_per_op", "count/op"},
	{"go.alloc_bytes_per_op", "B/op"},
	{"go.gc_cpu_frac", "ratio"},
	{"bench.get_p99_ms", "ms"},
	{"bench.put_p99_ms", "ms"},
	{"bench.scan_p99_ms", "ms"},
	{"bench.client_conns", "count"},
	{"bench.trace_overhead_frac", "ratio"},
}

// interval is a closed-open time range in tracer nanoseconds.
type interval struct{ lo, hi int64 }

// union merges intervals into a sorted, disjoint list.
func union(xs []interval) []interval {
	sort.Slice(xs, func(i, j int) bool { return xs[i].lo < xs[j].lo })
	var out []interval
	for _, x := range xs {
		if n := len(out); n > 0 && x.lo <= out[n-1].hi {
			if x.hi > out[n-1].hi {
				out[n-1].hi = x.hi
			}
			continue
		}
		out = append(out, x)
	}
	return out
}

// covered returns how much of [lo,hi) the disjoint sorted list u covers.
func covered(u []interval, lo, hi int64) int64 {
	i := sort.Search(len(u), func(i int) bool { return u[i].hi > lo })
	var c int64
	for ; i < len(u) && u[i].lo < hi; i++ {
		a, b := max(u[i].lo, lo), min(u[i].hi, hi)
		if b > a {
			c += b - a
		}
	}
	return c
}

func total(u []interval) int64 {
	var t int64
	for _, x := range u {
		t += x.hi - x.lo
	}
	return t
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// spanMetrics derives the span-based per-layer metrics. ops is the
// number of end-to-end operations completed in the traced window,
// wall its length; top is the layer clients talk to (server or router).
func spanMetrics(m map[string]float64, spans []span, ops int64, wall time.Duration, top uint8) {
	if ops == 0 {
		return
	}
	var handler [3][]float64
	var acquire, routerDur, nodeDur []float64
	backendBy := map[int16][]interval{}
	var allBackend []interval
	topDur := map[uint64]int64{}
	children := map[uint64][]interval{}
	var nodeSpans int64
	for _, s := range spans {
		switch s.layer {
		case layerServer:
			if s.op <= opScan {
				handler[s.op] = append(handler[s.op], us(s.dur()))
			}
			if top == layerRouter {
				nodeDur = append(nodeDur, us(s.dur()))
				nodeSpans++
				children[s.parent] = append(children[s.parent], interval{s.start, s.end})
			}
		case layerRouter:
			routerDur = append(routerDur, us(s.dur()))
		case layerEngine:
			if s.op == opAcquire || s.op == opAcquireAll {
				acquire = append(acquire, us(s.dur()))
			}
		case layerBackend:
			iv := interval{s.start, s.end}
			backendBy[s.node] = append(backendBy[s.node], iv)
			allBackend = append(allBackend, iv)
		}
		if s.layer == top && s.req != 0 {
			topDur[s.req] = s.dur()
		}
	}
	for n, ivs := range backendBy {
		backendBy[n] = union(ivs)
	}
	var engineSelf int64
	var outside, routerSelf []float64
	for _, s := range spans {
		switch s.layer {
		case layerEngine:
			engineSelf += s.dur() - covered(backendBy[s.node], s.start, s.end)
		case layerClient:
			if d, ok := topDur[s.req]; ok {
				outside = append(outside, us(s.dur()-d))
			}
		case layerRouter:
			routerSelf = append(routerSelf, us(s.dur()-covered(union(children[s.id]), s.start, s.end)))
		}
	}
	m["server.get_handler_us_p50"] = percentile(handler[opGet], 0.5)
	m["server.put_handler_us_p50"] = percentile(handler[opPut], 0.5)
	m["server.scan_handler_us_p50"] = percentile(handler[opScan], 0.5)
	m["server.outside_handler_us_p50"] = percentile(outside, 0.5)
	m["ooc.engine.acquire_us_p50"] = percentile(acquire, 0.5)
	m["ooc.engine.acquire_us_p99"] = percentile(acquire, 0.99)
	m["ooc.engine.self_us_per_op"] = us(engineSelf) / float64(ops)
	m["ooc.backend.busy_frac"] = float64(total(union(allBackend))) / float64(wall.Nanoseconds())
	if top == layerRouter {
		m["cluster.router_us_p50"] = percentile(routerDur, 0.5)
		m["cluster.router_self_us_p50"] = percentile(routerSelf, 0.5)
		m["cluster.node_us_p50"] = percentile(nodeDur, 0.5)
		m["cluster.node_reqs_per_op"] = float64(nodeSpans) / float64(ops)
	}
}

// engineMetrics fills the engine counter ratios from a stats delta.
func engineMetrics(m map[string]float64, d ooc.EngineStats, ops int64) {
	if acq := d.Hits + d.Misses; acq > 0 {
		m["ooc.engine.hit_rate"] = float64(d.Hits) / float64(acq)
	}
	if ops > 0 {
		m["ooc.engine.evictions_per_op"] = float64(d.Evictions) / float64(ops)
		m["ooc.engine.writebacks_per_op"] = float64(d.Writebacks) / float64(ops)
	}
	if d.PrefetchIssued > 0 {
		m["ooc.engine.prefetch_useful_frac"] = float64(d.PrefetchUseful) / float64(d.PrefetchIssued)
	}
}

// engineSum adds two engine stats.
func engineSum(a, b ooc.EngineStats) ooc.EngineStats {
	return ooc.EngineStats{
		Hits:           a.Hits + b.Hits,
		Misses:         a.Misses + b.Misses,
		Evictions:      a.Evictions + b.Evictions,
		Invalidations:  a.Invalidations + b.Invalidations,
		Writebacks:     a.Writebacks + b.Writebacks,
		PrefetchIssued: a.PrefetchIssued + b.PrefetchIssued,
		PrefetchUseful: a.PrefetchUseful + b.PrefetchUseful,
	}
}

// engineDelta returns b - a.
func engineDelta(a, b ooc.EngineStats) ooc.EngineStats {
	return ooc.EngineStats{
		Hits:           b.Hits - a.Hits,
		Misses:         b.Misses - a.Misses,
		Evictions:      b.Evictions - a.Evictions,
		Invalidations:  b.Invalidations - a.Invalidations,
		Writebacks:     b.Writebacks - a.Writebacks,
		PrefetchIssued: b.PrefetchIssued - a.PrefetchIssued,
		PrefetchUseful: b.PrefetchUseful - a.PrefetchUseful,
	}
}

// goMetrics fills the Go runtime ratios from two snapshots.
func goMetrics(m map[string]float64, a, b goCounters, ops int64) {
	if ops > 0 {
		m["go.allocs_per_op"] = float64(b.allocObjects-a.allocObjects) / float64(ops)
		m["go.alloc_bytes_per_op"] = float64(b.allocBytes-a.allocBytes) / float64(ops)
	}
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		m["go.gc_cpu_frac"] = (b.gcCPU - a.gcCPU) / cpu
	}
}

// codecRates times ooc.AppendFrame and ooc.DecodeFrame over payloads
// and returns encode and decode rates in MB/s of logical data, each
// the median of several short passes.
func codecRates(payloads [][]float64) (enc, dec float64) {
	var frames [][]byte
	var raw int64
	for _, p := range payloads {
		frames = append(frames, ooc.AppendFrame(nil, p))
		raw += int64(len(p)) * 8
	}
	pass := func(f func()) float64 {
		var rates []float64
		for rep := 0; rep < 5; rep++ {
			var bytes int64
			t0 := time.Now()
			for time.Since(t0) < 30*time.Millisecond {
				f()
				bytes += raw
			}
			rates = append(rates, float64(bytes)/1e6/time.Since(t0).Seconds())
		}
		return median(rates)
	}
	buf := make([]byte, 0, 1<<16)
	enc = pass(func() {
		for _, p := range payloads {
			buf = ooc.AppendFrame(buf[:0], p)
		}
	})
	var longest int
	for _, p := range payloads {
		longest = max(longest, len(p))
	}
	out := make([]float64, longest)
	dec = pass(func() {
		for i, f := range frames {
			ooc.DecodeFrame(f, out[:len(payloads[i])])
		}
	})
	return enc, dec
}
