package main

import (
	"fmt"
	"os"
	"time"

	"outcore/internal/ooc"
)

// servingSnap is a point-in-time copy of every public counter the
// serving workloads read; per-layer metrics are deltas of two.
type servingSnap struct {
	at                        time.Time
	cpu                       float64
	goc                       goCounters
	eng                       ooc.EngineStats
	walCommits, walFsyncs     int64
	walWords                  int64
	diskRaw, diskEnc          int64
	rejected, coalesced       int64
	wireRaw, wireEnc, repairs int64
	accepts                   int64
	bReads, bWrites, bWriteB  int64
}

func snapServing(s *system) servingSnap {
	sn := servingSnap{at: time.Now(), cpu: cpuSeconds(), goc: readGoCounters(), eng: engineStatsOf(s)}
	for _, n := range s.nodes {
		if w := n.disk.WALStats(); w != nil {
			sn.walCommits += w.Commits
			sn.walFsyncs += w.Fsyncs
			sn.walWords += w.AppendedWords
		}
		if c := n.disk.CompressionStats(); c != nil {
			sn.diskRaw += c.DiskWriteRawBytes
			sn.diskEnc += c.DiskWriteBytes
		}
		c := func(name string) int64 { return n.reg.Counter(name, "").Value() }
		sn.rejected += c("occd_rejected_ratelimit_total") + c("occd_rejected_queue_total")
		sn.coalesced += c("occd_coalesced_requests_total")
		sn.wireRaw += c("occd_wire_raw_bytes_total")
		sn.wireEnc += c("occd_wire_bytes_total")
		if s.router != nil {
			sn.accepts += n.ln.accepts.Load()
		}
		sn.bReads += n.bh.reads.Load()
		sn.bWrites += n.bh.writes.Load()
		sn.bWriteB += n.bh.writeB.Load()
	}
	if s.routerR != nil {
		sn.repairs = s.routerR.Counter("ooc_cluster_read_repairs_total", "").Value()
	}
	return sn
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runServing runs one of the HTTP workloads.
func runServing(cfg runConfig) (result, error) {
	w := servingWorkloads[cfg.workload]
	res := result{metrics: map[string]float64{}}
	var t *tracer
	if cfg.trace {
		t = newTracer()
	}
	sys, setupS, err := timeSetups(func(rep int) (*system, error) {
		s, err := w.start(cfg, rep, t)
		if err != nil {
			return nil, err
		}
		if !w.sweep {
			return s, nil
		}
		if err := warmCaches(s); err != nil {
			s.stop()
			return nil, fmt.Errorf("%w: warming caches: %v", errCheck, err)
		}
		return s, nil
	}, func(s *system) error {
		err := s.stop()
		removeAll(s.dir)
		return err
	})
	if err != nil {
		return res, err
	}
	dialer := &countingDialer{}
	for i := 0; i < nClients; i++ {
		sys.clients = append(sys.clients, newClient(i, sys.url, cfg.seed, w.tr, dialer, t))
	}
	sys.clients[0].corrupt = cfg.corrupt
	if warm := runPhase(sys.clients, warmup, slice); warm.failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d warm-up operations failed\n", warm.failed, warm.attempted)
	}
	measure := time.Duration(cfg.seconds * float64(time.Second))

	var ps phaseStats
	if !cfg.trace {
		a := snapServing(sys)
		heap := startHeapSampler()
		ps = runPhase(sys.clients, measure, slice)
		m := res.metrics
		m["heap_peak_mb"] = heap.Stop()
		b := snapServing(sys)
		m["setup_s"] = setupS
		m["throughput_ops_s"] = ps.throughput(slice)
		m["cpu_us_per_op"] = ratio((b.cpu-a.cpu)*1e6, float64(ps.ok))
		m["get_p50_ms"] = percentile(ps.lat[opGet], 0.5)
		m["get_p90_ms"] = percentile(ps.lat[opGet], 0.9)
		m["put_p50_ms"] = percentile(ps.lat[opPut], 0.5)
		m["put_p90_ms"] = percentile(ps.lat[opPut], 0.9)
		m["scan_p50_ms"] = percentile(ps.lat[opScan], 0.5)
		m["scan_p90_ms"] = percentile(ps.lat[opScan], 0.9)
	} else {
		// Three quarters run with the hooks idle; the last quarter
		// records spans. Counter deltas come from the traced quarter, Go
		// runtime figures from the untraced part, and the throughput
		// drop between them is the tracing overhead.
		a := snapServing(sys)
		plain := runPhase(sys.clients, measure-measure/4, slice)
		b := snapServing(sys)
		t.on.Store(true)
		ps = runPhase(sys.clients, measure/4, slice)
		t.on.Store(false)
		c := snapServing(sys)
		spans := t.take()
		linkEngineSpans(spans)
		m := res.metrics
		ops := ps.ok
		puts := int64(len(ps.lat[opPut]))
		top := layerServer
		if sys.router != nil {
			top = layerRouter
		}
		spanMetrics(m, spans, ops, c.at.Sub(b.at), top)
		engineMetrics(m, engineDelta(b.eng, c.eng), ops)
		goMetrics(m, a.goc, b.goc, plain.ok)
		perKop := func(d int64) float64 { return ratio(float64(d)*1000, float64(ops)) }
		m["server.rejected_per_kop"] = perKop(c.rejected - b.rejected)
		m["server.coalesced_per_kop"] = perKop(c.coalesced - b.coalesced)
		m["ooc.codec.disk_ratio"] = ratio(float64(c.diskRaw-b.diskRaw), float64(c.diskEnc-b.diskEnc))
		m["ooc.codec.wire_ratio"] = ratio(float64(c.wireRaw-b.wireRaw), float64(c.wireEnc-b.wireEnc))
		m["ooc.wal.commits_per_fsync"] = ratio(float64(c.walCommits-b.walCommits), float64(c.walFsyncs-b.walFsyncs))
		m["ooc.wal.fsyncs_per_put"] = ratio(float64(c.walFsyncs-b.walFsyncs), float64(puts))
		m["ooc.wal.appended_bytes_per_user_byte"] = ratio(float64(c.walWords-b.walWords)*8, float64(ps.putBytes))
		m["ooc.backend.read_calls_per_op"] = ratio(float64(c.bReads-b.bReads), float64(ops))
		m["ooc.backend.write_calls_per_op"] = ratio(float64(c.bWrites-b.bWrites), float64(ops))
		m["ooc.backend.bytes_written_per_user_byte"] = ratio(float64(c.bWriteB-b.bWriteB), float64(ps.putBytes))
		var syncs []float64
		for _, n := range sys.nodes {
			n.bh.mu.Lock()
			syncs = append(syncs, n.bh.syncMs...)
			n.bh.mu.Unlock()
		}
		m["ooc.backend.sync_ms_p50"] = percentile(syncs, 0.5)
		if sys.router != nil {
			m["cluster.node_conns_per_kop"] = perKop(c.accepts - b.accepts)
			m["cluster.read_repairs_per_kop"] = perKop(c.repairs - b.repairs)
		}
		m["ooc.codec.encode_mb_s"], m["ooc.codec.decode_mb_s"] = codecRates(servingPayloads(w.tr))
		m["bench.get_p99_ms"] = percentile(plain.lat[opGet], 0.99)
		m["bench.put_p99_ms"] = percentile(plain.lat[opPut], 0.99)
		m["bench.scan_p99_ms"] = percentile(plain.lat[opScan], 0.99)
		m["bench.client_conns"] = float64(dialer.dials.Load())
		m["bench.trace_overhead_frac"] = 1 - ratio(ps.throughput(slice), plain.throughput(slice))
		if err := writeTrace(cfg, spans); err != nil {
			sys.stop()
			return res, err
		}
	}
	for _, c := range sys.clients {
		c.close()
	}
	res.attempted, res.failed = ps.attempted, ps.failed
	ver := modelOf(w.tr, sys.clients)
	var checkErrs []error
	for _, c := range sys.clients {
		if n := c.checkErrs.Load(); n > 0 {
			checkErrs = append(checkErrs, fmt.Errorf("client %d: %d payloads disagreed with the model; first: %s", c.id, n, *c.firstErr.Load()))
		}
	}
	if err := readBack(sys.url, w.tr, ver); err != nil {
		checkErrs = append(checkErrs, err)
	}
	if err := sys.stop(); err != nil {
		return res, fmt.Errorf("drain: %w", err)
	}
	stored := backendBytes(sys)
	if w.drained != nil {
		stored, err = w.drained(sys, ver)
		if err != nil {
			checkErrs = append(checkErrs, err)
		}
	}
	if !cfg.trace {
		res.metrics["stored_bytes_per_user_byte"] = float64(stored) / float64(w.tr.n*w.tr.n*8)
		res.metrics["ok_frac"] = ratio(float64(ps.ok), float64(ps.attempted))
	}
	res.failed += int64(len(checkErrs))
	res.correct = len(checkErrs) == 0
	if len(checkErrs) > 0 {
		return res, fmt.Errorf("%w: %v", errCheck, checkErrs)
	}
	return res, nil
}

// servingPayloads samples the tile payloads a serving workload moves.
func servingPayloads(tr traffic) [][]float64 {
	var out [][]float64
	nt := tr.tilesPerDim()
	for k := int64(0); k < 64; k++ {
		r, c := (k*7)%nt, (k*13)%nt
		p := make([]float64, 0, tr.edge*tr.edge)
		for i := r * tr.edge; i < (r+1)*tr.edge; i++ {
			for j := c * tr.edge; j < (c+1)*tr.edge; j++ {
				p = append(p, valueAt(tr.n, i, j, uint32(k+1)))
			}
		}
		out = append(out, p)
	}
	return out
}
