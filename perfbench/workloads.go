package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"outcore/internal/ooc"
)

// runConfig is one benchmark invocation.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workDir  string // scratch space for data directories and the trace
	// corrupt flips a bit in one payload before the checker sees it; the
	// run must then fail (the checker's self-test).
	corrupt bool
}

// Phases of a run. Set-up repeats at least setupReps times and for at
// least setupMin, and setup_s is the median. Throughput is sampled per
// slice and reported as the median slice, so a short stall elsewhere on
// the machine moves one slice, not the result.
const (
	setupReps = 5
	setupMin  = 2 * time.Second
	warmup    = 2 * time.Second
	slice     = 500 * time.Millisecond
)

// The serving workloads. point-cached and cluster-replicated share the
// array, tiles, mix and seed, so their ratio is the per-hop cost.
var (
	pointTraffic = traffic{n: 512, edge: 16, zipf: 1.1, getPct: 86, putPct: 10}
	// durableTraffic spreads uniform access over 4096 tiles of 2 KiB,
	// eight times the engine cache, so reads miss and writes evict.
	durableTraffic = traffic{n: 1024, edge: 16, getPct: 55, putPct: 35, stripeScans: true}
)

const (
	pointCacheTiles   = 2048 // every 16×16 tile of the 512×512 array fits
	durableCacheTiles = 512
	durableShards     = 2
)

// servingWorkload knows how to bring up one serving system.
type servingWorkload struct {
	tr    traffic
	start func(cfg runConfig, rep int, t *tracer) (*system, error)
	// sweep ends set-up with one GET of every tile: it fills a cache
	// that holds the working set and checks the initial contents.
	sweep bool
	// drained runs after the system stopped: durable checks and stored
	// bytes. It returns stored bytes (0 = use the backend sizes).
	drained func(s *system, ver []uint32) (int64, error)
}

func durableNodeConfig(cfg runConfig, rep int) nodeConfig {
	return nodeConfig{
		id:         "n1",
		dir:        filepath.Join(cfg.workDir, "data-"+strconv.Itoa(os.Getpid()), "durable-"+strconv.Itoa(rep)),
		shards:     durableShards,
		durable:    true,
		cacheTiles: durableCacheTiles,
	}
}

var servingWorkloads = map[string]servingWorkload{
	"point-cached": {
		tr:    pointTraffic,
		sweep: true,
		start: func(cfg runConfig, rep int, t *tracer) (*system, error) {
			return startSingle(pointTraffic, nodeConfig{id: "", shards: 1, cacheTiles: pointCacheTiles}, t)
		},
	},
	"durable-compressed": {
		tr: durableTraffic,
		start: func(cfg runConfig, rep int, t *tracer) (*system, error) {
			nc := durableNodeConfig(cfg, rep)
			removeAll(nc.dir)
			if err := os.MkdirAll(nc.dir, 0o755); err != nil {
				return nil, err
			}
			return startSingle(durableTraffic, nc, t)
		},
		drained: func(s *system, ver []uint32) (int64, error) {
			stored, err := storedBytes(s.dir)
			if err != nil {
				return 0, err
			}
			// The drain checkpointed the logs; what they still hold
			// live is their header words plus anything appended since.
			if w := s.nodes[0].disk.WALStats(); w != nil {
				stored += (int64(w.Logs) + w.PendingWords) * 8
			}
			if err := reopenCheck(s.nodes[0].cfg, s.tr, ver); err != nil {
				return 0, fmt.Errorf("%w: %v", errCheck, err)
			}
			return stored, nil
		},
	},
	"cluster-replicated": {
		tr:    pointTraffic,
		sweep: true,
		start: func(cfg runConfig, rep int, t *tracer) (*system, error) {
			return startCluster(pointTraffic, pointCacheTiles, t)
		},
	},
}

// warmCaches GETs every tile once through the system so lazy set-up
// (cache fill, first connections) is over before timing; it checks
// each tile against the initial contents on the way.
func warmCaches(s *system) error {
	nt := s.tr.tilesPerDim()
	return readBack(s.url, s.tr, make([]uint32, nt*nt))
}

// stored footprint of in-memory disks: every backend's size in words.
func backendBytes(s *system) int64 {
	var words int64
	for _, n := range s.nodes {
		words += n.bh.sizeWords.Load()
	}
	return words * 8
}

func engineStatsOf(s *system) ooc.EngineStats {
	var tot ooc.EngineStats
	for _, n := range s.nodes {
		tot = engineSum(tot, n.eng.Stats())
	}
	return tot
}
