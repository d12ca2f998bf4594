package cluster

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"outcore/internal/keyhash"
	"outcore/internal/layout"
	"outcore/internal/obs"
	"outcore/internal/ooc"
	"outcore/internal/server"
)

// MaxReplicas bounds the replication factor: past the node count (or
// a handful) extra copies only multiply write fan-out.
const MaxReplicas = 8

// Options configures a Router. Nodes and Replicas are required; the
// rest default sanely.
type Options struct {
	// Nodes is the static membership: one client per storage node,
	// gossip-free, in a fixed order. Placement depends only on node IDs
	// (rendezvous hashing), not on this order.
	Nodes []*NodeClient
	// Replicas is R, the copies kept of every tile (default 2, capped
	// at the node count).
	Replicas int
	// TileDim is the routing grid's tile edge per dimension (default
	// 8). A request box spanning several grid tiles is decomposed;
	// every box inside one grid tile routes to that tile's replica
	// set, which is what keeps unaligned reads coherent with the
	// aligned writes they overlap.
	TileDim int64
	// HintDir durably queues hinted-handoff writes under this
	// directory (one log per node, fsynced per hint). Empty keeps
	// hints in memory — handoff still works, but hints die with the
	// router process.
	HintDir string
	// Wire negotiates the x-ooc-gorilla tile coding on router↔node
	// hops (on by default through NewRouter's option struct literal
	// being explicit; set NoWire to disable).
	NoWire bool
	// RetryAfter is the hint returned with 503 responses (default 1s).
	RetryAfter time.Duration
	// MaxInflight caps concurrently admitted data-plane requests
	// (default 4x GOMAXPROCS — fan-out requests spend most of their
	// time waiting on node I/O, so the router runs wider than a node).
	MaxInflight int
	// QueueDepth bounds waiters across all tenant admission queues
	// (default 256).
	QueueDepth int
	// Tenants configures the router's tenant plane: DRR weights,
	// request/byte quotas, and the per-tenant chunk cap. The zero value
	// is the pre-tenant behavior.
	Tenants server.TenantConfig
	// Obs supplies the metrics registry behind the router's /metrics.
	Obs *obs.Sink
}

// member is one storage node plus its routing and liveness state.
type member struct {
	client *NodeClient
	keySum uint64 // pinned hash of the node ID, for rendezvous scoring
	down   atomic.Bool
}

// arrayMeta is the router's catalog row for one array.
type arrayMeta struct {
	Name   string  `json:"name"`
	Dims   []int64 `json:"dims"`
	Elems  int64   `json:"elems"`
	Layout string  `json:"layout,omitempty"`
}

// genTable assigns monotonically increasing write generations per
// routing tile. The router is otherwise stateless: the table is an
// in-memory cache of "the next generation to write", opportunistically
// raised whenever a node reports a newer stored generation — so a
// restarted router (counter reset to 0) catches up on first contact
// instead of writing forever-stale generations.
type genTable struct {
	mu sync.Mutex
	m  map[string]*atomic.Uint64
}

func (g *genTable) counter(key string) *atomic.Uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.m == nil {
		g.m = map[string]*atomic.Uint64{}
	}
	c := g.m[key]
	if c == nil {
		c = &atomic.Uint64{}
		g.m[key] = c
	}
	return c
}

// next returns a fresh generation for key (1, 2, ...).
func (g *genTable) next(key string) uint64 { return g.counter(key).Add(1) }

// raise lifts key's counter to at least seen.
func (g *genTable) raise(key string, seen uint64) {
	c := g.counter(key)
	for {
		cur := c.Load()
		if cur >= seen || c.CompareAndSwap(cur, seen) {
			return
		}
	}
}

// routerMetrics are the occrouter_* and ooc_cluster_* registry series.
type routerMetrics struct {
	requests       *obs.Counter
	errors         *obs.Counter
	gets           *obs.Counter
	puts           *obs.Counter
	batches        *obs.Counter
	batchOps       *obs.Counter
	batchOpErrors  *obs.Counter
	scans          *obs.Counter
	scanChunks     *obs.Counter
	scanResumes    *obs.Counter
	reduces        *obs.Counter
	reduceElems    *obs.Counter
	latency        *obs.Histogram
	readRepairs    *obs.Counter
	handoffHints   *obs.Counter
	hintsDrained   *obs.Counter
	quorumFailures *obs.Counter
	staleWrites    *obs.Counter
	nodesUp        *obs.Gauge
	hintsQueued    *obs.Gauge
	nodes          *obs.Gauge
	replicas       *obs.Gauge
}

// Router fans tile requests across the cluster. Create with NewRouter,
// mount Handler, call Drain on shutdown, and run Probe periodically
// (the occrouter daemon does; tests call it at chosen points).
type Router struct {
	opts    Options
	members []*member
	gens    genTable
	hints   *hintStore
	catalog struct {
		mu sync.Mutex
		m  map[string]arrayMeta
	}
	mux      *http.ServeMux
	reg      *obs.Registry
	met      routerMetrics
	sem      chan struct{}
	tenants  *server.TenantPlane
	draining atomic.Bool
}

// NewRouter validates the membership and builds the router.
func NewRouter(o Options) (*Router, error) {
	if len(o.Nodes) == 0 {
		return nil, errors.New("cluster: no nodes")
	}
	if o.Replicas <= 0 {
		o.Replicas = 2
	}
	if o.Replicas > len(o.Nodes) {
		o.Replicas = len(o.Nodes)
	}
	if o.Replicas > MaxReplicas {
		return nil, fmt.Errorf("cluster: %d replicas out of range (valid: 1..%d)", o.Replicas, MaxReplicas)
	}
	if o.TileDim == 0 {
		o.TileDim = 8
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = 4 * runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 256
	}
	seen := map[string]bool{}
	r := &Router{opts: o}
	for _, nc := range o.Nodes {
		if nc.ID == "" {
			return nil, errors.New("cluster: node with empty ID")
		}
		if seen[nc.ID] {
			return nil, fmt.Errorf("cluster: duplicate node ID %q", nc.ID)
		}
		seen[nc.ID] = true
		r.members = append(r.members, &member{client: nc, keySum: keyhash.String(nc.ID)})
	}
	hints, err := newHintStore(o.HintDir)
	if err != nil {
		return nil, err
	}
	r.hints = hints
	r.catalog.m = map[string]arrayMeta{}
	// The catalog, like the generation table, is an in-memory cache of
	// state the nodes durably hold: rebuild it from their listings so a
	// restarted router keeps serving every existing array instead of
	// 404ing until re-creation. Union across nodes — a node that was
	// down during a create is missing arrays its peers have. Nodes that
	// don't answer are skipped here; the probe loop and the data plane
	// discover unreachable nodes the normal way.
	r.recoverCatalog()

	reg := o.Obs.MetricsOf()
	if reg == nil {
		reg = obs.NewRegistry()
	}
	r.reg = reg
	r.met = routerMetrics{
		requests: reg.Counter("occrouter_requests_total", "data-plane requests handled by the router"),
		errors:   reg.Counter("occrouter_errors_total", "router requests that failed (5xx)"),
		gets:     reg.Counter("occrouter_tile_gets_total", "tile reads routed"),
		puts:     reg.Counter("occrouter_tile_puts_total", "tile writes routed"),
		batches:  reg.Counter("occd_batch_requests_total", "batch requests routed"),
		batchOps: reg.Counter("occd_batch_ops_total", "individual ops carried by routed batches"),
		batchOpErrors: reg.Counter("occd_batch_op_errors_total",
			"routed batch ops that answered a per-op 4xx/5xx"),
		scans:       reg.Counter("occd_scan_requests_total", "streaming range scans routed"),
		scanChunks:  reg.Counter("occd_scan_chunks_total", "scan chunks stitched and sent by the router"),
		scanResumes: reg.Counter("occd_scan_resumes_total", "scans resumed from a cursor token"),
		reduces:     reg.Counter("occd_reduce_requests_total", "pushed-down reductions routed"),
		reduceElems: reg.Counter("occd_reduce_elems_total", "elements folded by routed reductions"),
		latency: reg.Histogram("occrouter_request_seconds",
			"routed request latency in seconds", obs.ExpBuckets(1e-5, 4, 10)),
		readRepairs:    reg.Counter("ooc_cluster_read_repairs_total", "stale replicas rewritten after a divergent fan-out read"),
		handoffHints:   reg.Counter("ooc_cluster_handoff_hints_total", "writes queued as hints for unreachable replicas"),
		hintsDrained:   reg.Counter("ooc_cluster_hints_drained_total", "hinted writes replayed to a returned replica"),
		quorumFailures: reg.Counter("ooc_cluster_quorum_failures_total", "requests failed for lack of a replica quorum"),
		staleWrites:    reg.Counter("ooc_cluster_stale_writes_total", "writes a node skipped for holding a newer generation"),
		nodesUp:        reg.Gauge("ooc_cluster_nodes_up", "storage nodes currently considered reachable"),
		hintsQueued:    reg.Gauge("ooc_cluster_hints_queued", "hinted writes currently queued for down replicas"),
		nodes:          reg.Gauge("ooc_cluster_nodes", "storage nodes in the static membership"),
		replicas:       reg.Gauge("ooc_cluster_replicas", "copies kept of every tile (R)"),
	}
	r.met.nodes.Set(float64(len(r.members)))
	r.met.replicas.Set(float64(o.Replicas))
	r.met.nodesUp.Set(float64(len(r.members)))

	r.sem = make(chan struct{}, o.MaxInflight)
	r.tenants = server.NewTenantPlane(server.TenantPlaneOpts{
		Config:       o.Tenants,
		MetricPrefix: "occrouter",
		Reg:          reg,
		Pool:         r.sem,
		QueueDepth:   o.QueueDepth,
	})

	r.mux = http.NewServeMux()
	r.mux.HandleFunc("GET /healthz", r.handleHealthz)
	r.mux.HandleFunc("GET /metrics", r.handleMetrics)
	r.mux.HandleFunc("GET /v1/stats", r.handleStats)
	r.mux.HandleFunc("GET /v1/arrays", r.handleArrayList)
	r.mux.HandleFunc("POST /v1/arrays", r.handleArrayCreate)
	r.mux.HandleFunc("GET /v1/arrays/{name}", r.handleArrayGet)
	r.mux.HandleFunc("GET /v1/arrays/{name}/tile", r.timed(r.handleTileGet))
	r.mux.HandleFunc("PUT /v1/arrays/{name}/tile", r.timed(r.handleTilePut))
	r.mux.HandleFunc("POST /v1/arrays/{name}/batch", r.timed(r.handleBatch))
	r.mux.HandleFunc("GET /v1/arrays/{name}/scan", r.timed(r.handleScan))
	r.mux.HandleFunc("POST /v1/arrays/{name}/reduce", r.timed(r.handleReduce))
	return r, nil
}

// Handler returns the HTTP handler to mount: the route table behind
// the tenant layer, so every request carries a resolved identity (and
// /t/<id>/-prefixed paths route like their bare forms).
func (r *Router) Handler() http.Handler { return server.TenantHandler(r.mux) }

// Replicas returns R.
func (r *Router) Replicas() int { return r.opts.Replicas }

// Drain stops admitting work, fails every queued admission with 503,
// and closes the hint logs. Node lifecycles are not the router's to
// manage.
func (r *Router) Drain() error {
	r.draining.Store(true)
	r.tenants.FailWaiters()
	return r.hints.Close()
}

// timed wraps a data-plane handler with admission — tenant quotas
// (429 + Retry-After), then a DRR-scheduled slot from the shared pool
// (503 when the queue is full) — and latency accounting.
func (r *Router) timed(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		if r.draining.Load() {
			w.Header().Set("Retry-After", r.retryAfter())
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		r.met.requests.Inc()
		tenant := server.TenantOf(req)
		if ok, wait := r.tenants.Allow(tenant); !ok {
			w.Header().Set("Retry-After", retrySecs(wait))
			http.Error(w, "tenant quota exceeded", http.StatusTooManyRequests)
			return
		}
		release, ok := r.tenants.Acquire(req, tenant)
		if !ok {
			w.Header().Set("Retry-After", r.retryAfter())
			http.Error(w, "admission queue full", http.StatusServiceUnavailable)
			return
		}
		defer release()
		req = server.WithAdmissionRelease(req, release)
		t0 := time.Now()
		next(w, req)
		r.met.latency.Observe(time.Since(t0).Seconds())
	}
}

// retrySecs renders a Retry-After duration as whole seconds (min 1).
func retrySecs(d time.Duration) string {
	secs := int64(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

func (r *Router) retryAfter() string {
	secs := int64(math.Ceil(r.opts.RetryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// replicasFor ranks the membership by rendezvous score for key and
// returns the top R members — the tile's replica set, stable for a
// fixed membership, minimally disturbed when it changes.
func (r *Router) replicasFor(keySum uint64) []*member {
	type scored struct {
		m *member
		s uint64
	}
	sc := make([]scored, len(r.members))
	for i, m := range r.members {
		sc[i] = scored{m, keyhash.Rendezvous(keySum, m.keySum)}
	}
	sort.Slice(sc, func(a, b int) bool { return sc[a].s > sc[b].s })
	out := make([]*member, r.opts.Replicas)
	for i := range out {
		out[i] = sc[i].m
	}
	return out
}

// tileKeyOf renders the canonical routing key for (name, grid tile).
func tileKeyOf(name string, tile layout.Box) string {
	return string(keyhash.AppendKey(nil, name, tile))
}

// markDown transitions a member to down (idempotent), updating the
// liveness gauge.
func (r *Router) markDown(m *member) {
	if !m.down.Swap(true) {
		r.updateNodesUp()
	}
}

func (r *Router) updateNodesUp() {
	up := 0
	for _, m := range r.members {
		if !m.down.Load() {
			up++
		}
	}
	r.met.nodesUp.Set(float64(up))
}

// Probe is the router's recovery tick: down nodes that answer their
// health check get their catalog synced and their hint queue drained,
// then rejoin the live set; up nodes with residual hints drain too.
// The occrouter daemon calls it on a timer; tests and the local
// harness call it at exact points, which keeps episodes deterministic.
func (r *Router) Probe() {
	for _, m := range r.members {
		if m.down.Load() {
			if !m.client.Healthz() {
				continue
			}
			// A node that lost its disk between kill and return may be
			// missing arrays; replaying the catalog makes hint replay
			// (and future traffic) land on existing arrays.
			if !r.syncCatalog(m) {
				continue
			}
			if r.drainHints(m) {
				m.down.Store(false)
				r.updateNodesUp()
			}
		} else if r.hints.Pending(m.client.ID) > 0 {
			r.drainHints(m)
		}
	}
	r.met.hintsQueued.Set(float64(r.hints.PendingTotal()))
}

// recoverCatalog seeds the catalog with the union of the reachable
// nodes' array listings. Best-effort: an unreachable node contributes
// nothing (its arrays exist on replicas too, replication permitting),
// and listing failures never fail router construction.
func (r *Router) recoverCatalog() {
	for _, m := range r.members {
		arrays, err := m.client.ListArrays()
		if err != nil {
			continue
		}
		r.catalog.mu.Lock()
		for _, am := range arrays {
			if _, ok := r.catalog.m[am.Name]; !ok {
				r.catalog.m[am.Name] = am
			}
		}
		r.catalog.mu.Unlock()
	}
}

// syncCatalog replays every known array creation to a returning node.
func (r *Router) syncCatalog(m *member) bool {
	r.catalog.mu.Lock()
	arrays := make([]arrayMeta, 0, len(r.catalog.m))
	for _, am := range r.catalog.m {
		arrays = append(arrays, am)
	}
	r.catalog.mu.Unlock()
	for _, am := range arrays {
		if err := m.client.CreateArray(am.Name, am.Dims, am.Layout); err != nil {
			return false
		}
	}
	return true
}

// drainHints replays the member's hint queue; true means it emptied.
func (r *Router) drainHints(m *member) bool {
	n, err := r.hints.Drain(m.client.ID, func(h hint) error {
		stored, stale, err := m.client.PutTile(h.name, h.box, h.data, h.gen, !r.opts.NoWire)
		if err != nil {
			return err
		}
		if stale {
			// Something newer already landed — the hint is obsolete,
			// which is delivery, not failure.
			r.gens.raise(tileKeyOf(h.name, routingTile(h.box, r.opts.TileDim)), stored)
		}
		return nil
	})
	r.met.hintsDrained.Add(int64(n))
	r.met.hintsQueued.Set(float64(r.hints.PendingTotal()))
	return err == nil
}

func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	if r.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	if req.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		r.reg.WriteJSON(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	r.reg.WritePrometheus(w)
}

// nodeStatsLite mirrors the slice of a node's /v1/stats the router
// aggregates (decoding into a local struct keeps the wire contract,
// not the server's internal type, as the coupling).
type nodeStatsLite struct {
	Engine    ooc.EngineStats `json:"engine"`
	Requests  int64           `json:"requests"`
	Coalesced int64           `json:"coalesced"`
}

// clusterStats is the /v1/stats cluster scorecard.
type clusterStats struct {
	Nodes          int   `json:"nodes"`
	NodesUp        int   `json:"nodes_up"`
	Replicas       int   `json:"replicas"`
	ReadRepairs    int64 `json:"read_repairs"`
	HandoffHints   int64 `json:"handoff_hints"`
	HintsDrained   int64 `json:"hints_drained"`
	HintsQueued    int64 `json:"hints_queued"`
	QuorumFailures int64 `json:"quorum_failures"`
	StaleWrites    int64 `json:"stale_writes"`
}

// nodeStat is one node's row in the scorecard.
type nodeStat struct {
	ID          string           `json:"id"`
	URL         string           `json:"url"`
	Up          bool             `json:"up"`
	HintsQueued int              `json:"hints_queued"`
	Engine      *ooc.EngineStats `json:"engine,omitempty"`
}

// routerStatsPayload is the router's /v1/stats JSON. The top-level
// keys mirror a single occd's payload — engine counters summed over
// reachable nodes — so tooling that reads occd stats (the load
// harness's delta reporting included) works unchanged against a
// router; cluster and nodes carry the distributed story.
type routerStatsPayload struct {
	Engine            ooc.EngineStats     `json:"engine"`
	HitRate           float64             `json:"hit_rate"`
	Requests          int64               `json:"requests"`
	Coalesced         int64               `json:"coalesced"`
	RejectedRateLimit int64               `json:"rejected_ratelimit"`
	RejectedQueue     int64               `json:"rejected_queue"`
	Inflight          int64               `json:"inflight"`
	Queued            int64               `json:"queued"`
	Draining          bool                `json:"draining"`
	Ops               routerOpsStats      `json:"ops"`
	Cluster           clusterStats        `json:"cluster"`
	Nodes             []nodeStat          `json:"nodes"`
	Tenants           []server.TenantStat `json:"tenants,omitempty"`
}

// routerOpsStats mirrors occd's batch/scan/reduce scorecard keys, with
// router-side counts (ops the router decomposed and fanned out).
type routerOpsStats struct {
	BatchRequests  int64 `json:"batch_requests"`
	BatchOps       int64 `json:"batch_ops"`
	BatchOpErrors  int64 `json:"batch_op_errors"`
	ScanRequests   int64 `json:"scan_requests"`
	ScanChunks     int64 `json:"scan_chunks"`
	ScanResumes    int64 `json:"scan_resumes"`
	ReduceRequests int64 `json:"reduce_requests"`
	ReduceElems    int64 `json:"reduce_elems"`
}

func (r *Router) handleStats(w http.ResponseWriter, req *http.Request) {
	rejQuota, rejQueue := r.tenants.Totals()
	p := routerStatsPayload{
		Requests:          r.met.requests.Value(),
		RejectedRateLimit: rejQuota,
		RejectedQueue:     rejQueue,
		Inflight:          int64(r.tenants.InflightLen()),
		Queued:            r.tenants.Queued(),
		Draining:          r.draining.Load(),
		Tenants:           r.tenants.Stats(),
		Ops: routerOpsStats{
			BatchRequests:  r.met.batches.Value(),
			BatchOps:       r.met.batchOps.Value(),
			BatchOpErrors:  r.met.batchOpErrors.Value(),
			ScanRequests:   r.met.scans.Value(),
			ScanChunks:     r.met.scanChunks.Value(),
			ScanResumes:    r.met.scanResumes.Value(),
			ReduceRequests: r.met.reduces.Value(),
			ReduceElems:    r.met.reduceElems.Value(),
		},
		Cluster: clusterStats{
			Nodes:          len(r.members),
			Replicas:       r.opts.Replicas,
			ReadRepairs:    r.met.readRepairs.Value(),
			HandoffHints:   r.met.handoffHints.Value(),
			HintsDrained:   r.met.hintsDrained.Value(),
			HintsQueued:    int64(r.hints.PendingTotal()),
			QuorumFailures: r.met.quorumFailures.Value(),
			StaleWrites:    r.met.staleWrites.Value(),
		},
	}
	for _, m := range r.members {
		ns := nodeStat{
			ID:          m.client.ID,
			URL:         m.client.BaseURL,
			Up:          !m.down.Load(),
			HintsQueued: r.hints.Pending(m.client.ID),
		}
		if ns.Up {
			var lite nodeStatsLite
			if err := m.client.Stats(&lite); err == nil {
				es := lite.Engine
				ns.Engine = &es
				p.Engine.Hits += es.Hits
				p.Engine.Misses += es.Misses
				p.Engine.Evictions += es.Evictions
				p.Engine.Invalidations += es.Invalidations
				p.Engine.Writebacks += es.Writebacks
				p.Engine.WritebackErrors += es.WritebackErrors
				p.Engine.PrefetchIssued += es.PrefetchIssued
				p.Engine.PrefetchUseful += es.PrefetchUseful
				p.Coalesced += lite.Coalesced
			}
		}
		if ns.Up {
			p.Cluster.NodesUp++
		}
		p.Nodes = append(p.Nodes, ns)
	}
	p.HitRate = p.Engine.HitRate()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(p)
}

func (r *Router) handleArrayList(w http.ResponseWriter, req *http.Request) {
	r.catalog.mu.Lock()
	out := make([]arrayMeta, 0, len(r.catalog.m))
	for _, am := range r.catalog.m {
		out = append(out, am)
	}
	r.catalog.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	writeJSON(w, http.StatusOK, out)
}

func (r *Router) handleArrayGet(w http.ResponseWriter, req *http.Request) {
	name := req.PathValue("name")
	r.catalog.mu.Lock()
	am, ok := r.catalog.m[name]
	r.catalog.mu.Unlock()
	if !ok {
		http.Error(w, fmt.Sprintf("no array %q", name), http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, am)
}

// handleArrayCreate fans the creation out to every node: placement can
// land a tile anywhere, so the array must exist everywhere. Nodes that
// are down catch up via catalog sync when they return; the create
// succeeds as long as every REACHABLE node accepted it and at least
// one did.
func (r *Router) handleArrayCreate(w http.ResponseWriter, req *http.Request) {
	var body struct {
		Name   string  `json:"name"`
		Dims   []int64 `json:"dims"`
		Layout string  `json:"layout"`
	}
	if err := json.NewDecoder(req.Body).Decode(&body); err != nil {
		http.Error(w, fmt.Sprintf("bad create body: %v", err), http.StatusBadRequest)
		return
	}
	if body.Name == "" || len(body.Dims) == 0 {
		http.Error(w, "create needs a name and dims", http.StatusBadRequest)
		return
	}
	elems := int64(1)
	for _, d := range body.Dims {
		if d <= 0 {
			http.Error(w, fmt.Sprintf("non-positive extent %d", d), http.StatusBadRequest)
			return
		}
		elems *= d
	}
	acks := 0
	var hardErr error
	for _, m := range r.members {
		if m.down.Load() {
			continue
		}
		if err := m.client.CreateArray(body.Name, body.Dims, body.Layout); err != nil {
			if errors.Is(err, ErrUnavailable) {
				r.markDown(m)
				continue
			}
			hardErr = err
			break
		}
		acks++
	}
	if hardErr != nil {
		r.met.errors.Inc()
		http.Error(w, hardErr.Error(), http.StatusBadRequest)
		return
	}
	if acks == 0 {
		r.met.errors.Inc()
		w.Header().Set("Retry-After", r.retryAfter())
		http.Error(w, "no reachable node accepted the create", http.StatusServiceUnavailable)
		return
	}
	am := arrayMeta{Name: body.Name, Dims: body.Dims, Elems: elems, Layout: body.Layout}
	r.catalog.mu.Lock()
	r.catalog.m[body.Name] = am
	r.catalog.mu.Unlock()
	writeJSON(w, http.StatusCreated, am)
}

// target resolves {name} + lo/hi into a clipped box against the
// catalog, writing the 4xx itself on failure.
func (r *Router) target(w http.ResponseWriter, req *http.Request) (arrayMeta, layout.Box, bool) {
	name := req.PathValue("name")
	r.catalog.mu.Lock()
	am, ok := r.catalog.m[name]
	r.catalog.mu.Unlock()
	if !ok {
		http.Error(w, fmt.Sprintf("no array %q", name), http.StatusNotFound)
		return am, layout.Box{}, false
	}
	lo, err := parseCoords(req.URL.Query().Get("lo"))
	if err != nil {
		http.Error(w, fmt.Sprintf("bad lo: %v", err), http.StatusBadRequest)
		return am, layout.Box{}, false
	}
	hi, err := parseCoords(req.URL.Query().Get("hi"))
	if err != nil {
		http.Error(w, fmt.Sprintf("bad hi: %v", err), http.StatusBadRequest)
		return am, layout.Box{}, false
	}
	if len(lo) != len(am.Dims) || len(hi) != len(am.Dims) {
		http.Error(w, fmt.Sprintf("tile rank %d/%d, array rank %d", len(lo), len(hi), len(am.Dims)), http.StatusBadRequest)
		return am, layout.Box{}, false
	}
	for d := range lo {
		if hi[d] < lo[d] {
			http.Error(w, fmt.Sprintf("hi[%d]=%d below lo[%d]=%d", d, hi[d], d, lo[d]), http.StatusBadRequest)
			return am, layout.Box{}, false
		}
	}
	box := layout.NewBox(lo, hi).Clip(am.Dims)
	if box.Empty() {
		http.Error(w, fmt.Sprintf("tile %v is empty after clipping to %v", layout.NewBox(lo, hi), am.Dims), http.StatusBadRequest)
		return am, layout.Box{}, false
	}
	return am, box, true
}

// pieceGet reads one grid-tile piece: fan out to the whole replica
// set, resolve with the freshest of WHOEVER ANSWERS (read-one /
// latest-wins — a single reply suffices, so reads stay available
// while any replica lives, at the price of possible staleness when
// the only survivor's copy is still a queued hint), and synchronously
// read-repair stale responders. See the package comment for the full
// consistency contract. The fan-out rides under tenant's identity so
// node-side admission schedules it in the right lane; read-repair
// stays untenanted (system traffic, not the tenant's bytes).
func (r *Router) pieceGet(tenant, name string, piece layout.Box) ([]float64, uint64, error) {
	key := tileKeyOf(name, routingTile(piece, r.opts.TileDim))
	reps := r.replicasFor(keyhash.Bytes([]byte(key)))

	type reply struct {
		data []float64
		gen  uint64
		err  error
	}
	replies := make([]reply, len(reps))
	var wg sync.WaitGroup
	for i, m := range reps {
		if m.down.Load() {
			replies[i].err = ErrUnavailable
			continue
		}
		wg.Add(1)
		go func(i int, m *member) {
			defer wg.Done()
			data, gen, err := m.client.ForTenant(tenant).GetTile(name, piece, !r.opts.NoWire)
			if err != nil && errors.Is(err, ErrUnavailable) {
				r.markDown(m)
			}
			replies[i] = reply{data, gen, err}
		}(i, m)
	}
	wg.Wait()

	// Freshest replica wins; lowest replica rank breaks ties so the
	// resolution is deterministic, not completion-order dependent.
	win := -1
	var hardErr error
	for i := range replies {
		if replies[i].err != nil {
			if !errors.Is(replies[i].err, ErrUnavailable) && hardErr == nil {
				hardErr = replies[i].err
			}
			continue
		}
		if win < 0 || replies[i].gen > replies[win].gen {
			win = i
		}
	}
	if win < 0 {
		if hardErr != nil {
			return nil, 0, hardErr
		}
		return nil, 0, ErrUnavailable
	}
	// Read-repair: rewrite every reachable replica that answered with
	// an older generation, under the winner's generation, so the next
	// read agrees. Synchronous — the repair is part of this read's
	// consistency story, and deterministic tests can observe it. The
	// winner's body is encoded once, on the first repair.
	var body []byte
	for i := range replies {
		if i == win || replies[i].err != nil || replies[i].gen >= replies[win].gen {
			continue
		}
		if body == nil {
			body = tileBody(replies[win].data, !r.opts.NoWire)
		}
		if _, _, err := reps[i].client.putTileBody(name, piece, body, replies[win].gen, !r.opts.NoWire); err != nil {
			if errors.Is(err, ErrUnavailable) {
				r.markDown(reps[i])
			}
			continue
		}
		r.met.readRepairs.Inc()
	}
	r.gens.raise(key, replies[win].gen)
	return replies[win].data, replies[win].gen, nil
}

// piecePut writes one grid-tile piece to its replica set under a fresh
// generation: live replicas synchronously, down or failing replicas as
// durable hints. ok requires a sloppy quorum — at least one live ack,
// and live acks plus durably queued hints reaching majority. The live
// fan-out carries tenant's identity; hint replay stays untenanted.
func (r *Router) piecePut(tenant, name string, piece layout.Box, data []float64) (uint64, bool) {
	key := tileKeyOf(name, routingTile(piece, r.opts.TileDim))
	reps := r.replicasFor(keyhash.Bytes([]byte(key)))
	// One encoding serves every replica and both attempts.
	body := tileBody(data, !r.opts.NoWire)

	// Up to one retry round: a node reporting a newer stored generation
	// (a router restart zeroed the counter) raises it, and the write
	// re-runs with a generation that wins.
	for attempt := 0; attempt < 2; attempt++ {
		gen := r.gens.next(key)
		type reply struct {
			acked  bool
			stale  bool
			stored uint64
			hinted bool
		}
		replies := make([]reply, len(reps))
		var wg sync.WaitGroup
		for i, m := range reps {
			if m.down.Load() {
				if r.hints.Enqueue(m.client.ID, name, piece, gen, data) == nil {
					replies[i].hinted = true
					r.met.handoffHints.Inc()
				}
				continue
			}
			wg.Add(1)
			go func(i int, m *member) {
				defer wg.Done()
				stored, stale, err := m.client.ForTenant(tenant).putTileBody(name, piece, body, gen, !r.opts.NoWire)
				if err != nil {
					if errors.Is(err, ErrUnavailable) {
						r.markDown(m)
						if r.hints.Enqueue(m.client.ID, name, piece, gen, data) == nil {
							replies[i].hinted = true
							r.met.handoffHints.Inc()
						}
					}
					return
				}
				replies[i] = reply{acked: true, stale: stale, stored: stored}
			}(i, m)
		}
		wg.Wait()
		r.met.hintsQueued.Set(float64(r.hints.PendingTotal()))

		acks, hinted, staleSeen := 0, 0, uint64(0)
		for _, rep := range replies {
			if rep.acked {
				// A stale 204 still counts toward the quorum: the replica
				// is live and durably holds a NEWER write, so ours is
				// superseded, not lost — under last-write-wins it reads as
				// applied immediately before the write that beat it.
				acks++
				if rep.stale && rep.stored > staleSeen {
					staleSeen = rep.stored
				}
			}
			if rep.hinted {
				hinted++
			}
		}
		if staleSeen > gen && attempt == 0 {
			// The cluster has newer generations than our counter knew —
			// either a router restart zeroed it, or a concurrent writer
			// outran us. Catch the counter up and rewrite once so this
			// PUT gets a chance to really be the latest; if the retry is
			// outrun again, the superseding write wins and the stale acks
			// above settle the quorum.
			r.met.staleWrites.Inc()
			r.gens.raise(key, staleSeen)
			continue
		}
		quorum := r.opts.Replicas/2 + 1
		if acks >= 1 && acks+hinted >= quorum {
			return gen, true
		}
		return gen, false
	}
	return 0, false
}

func (r *Router) handleTileGet(w http.ResponseWriter, req *http.Request) {
	am, box, ok := r.target(w, req)
	if !ok {
		return
	}
	r.met.gets.Inc()
	tenant := server.TenantOf(req)
	pieces := gridTiles(box, r.opts.TileDim)
	out := make([]float64, box.Size())
	var maxGen uint64
	for _, piece := range pieces {
		data, gen, err := r.pieceGet(tenant, am.Name, piece)
		if err != nil {
			r.met.errors.Inc()
			if errors.Is(err, ErrUnavailable) {
				r.met.quorumFailures.Inc()
				w.Header().Set("Retry-After", r.retryAfter())
				http.Error(w, "no reachable replica", http.StatusServiceUnavailable)
			} else {
				http.Error(w, err.Error(), http.StatusBadGateway)
			}
			return
		}
		if gen > maxGen {
			maxGen = gen
		}
		if len(pieces) == 1 {
			out = data
			break
		}
		copyRegion(out, box, data, piece, piece)
	}
	var payload []byte
	compress := acceptsWire(req.Header.Get("Accept-Encoding"))
	if compress {
		payload = ooc.AppendFrame(nil, out)
		w.Header().Set("Content-Encoding", server.WireEncoding)
	} else {
		payload = make([]byte, len(out)*ooc.ElemSize)
		for i, v := range out {
			binary.LittleEndian.PutUint64(payload[i*ooc.ElemSize:], math.Float64bits(v))
		}
	}
	r.tenants.DebitBytes(tenant, box.Size()*ooc.ElemSize)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(server.TileGenHeader, strconv.FormatUint(maxGen, 10))
	w.Header().Set("X-Tile-Elems", strconv.FormatInt(box.Size(), 10))
	w.Write(payload)
}

func (r *Router) handleTilePut(w http.ResponseWriter, req *http.Request) {
	am, box, ok := r.target(w, req)
	if !ok {
		return
	}
	r.met.puts.Inc()
	want := box.Size() * ooc.ElemSize
	raw, err := io.ReadAll(io.LimitReader(req.Body, want+64))
	if err != nil {
		http.Error(w, fmt.Sprintf("tile payload: %v", err), http.StatusBadRequest)
		return
	}
	data := make([]float64, box.Size())
	switch enc := req.Header.Get("Content-Encoding"); enc {
	case "":
		if int64(len(raw)) != want {
			http.Error(w, fmt.Sprintf("tile payload: %d bytes, want %d for %v", len(raw), want, box), http.StatusBadRequest)
			return
		}
		for i := range data {
			data[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*ooc.ElemSize:]))
		}
	case server.WireEncoding:
		n, err := ooc.DecodeFrame(raw, data)
		if err == nil && n != len(raw) {
			err = fmt.Errorf("%d trailing bytes after the frame", len(raw)-n)
		}
		if err != nil {
			http.Error(w, fmt.Sprintf("tile frame: %v", err), http.StatusBadRequest)
			return
		}
	default:
		http.Error(w, fmt.Sprintf("unsupported Content-Encoding %q (only %s)", enc, server.WireEncoding), http.StatusUnsupportedMediaType)
		return
	}

	tenant := server.TenantOf(req)
	pieces := gridTiles(box, r.opts.TileDim)
	var maxGen uint64
	for _, piece := range pieces {
		var pdata []float64
		if len(pieces) == 1 {
			pdata = data
		} else {
			pdata = make([]float64, piece.Size())
			copyRegion(pdata, piece, data, box, piece)
		}
		gen, ok := r.piecePut(tenant, am.Name, piece, pdata)
		if !ok {
			r.met.errors.Inc()
			r.met.quorumFailures.Inc()
			w.Header().Set("Retry-After", r.retryAfter())
			http.Error(w, "write quorum unavailable", http.StatusServiceUnavailable)
			return
		}
		if gen > maxGen {
			maxGen = gen
		}
	}
	r.tenants.DebitBytes(tenant, box.Size()*ooc.ElemSize)
	w.Header().Set(server.TileGenHeader, strconv.FormatUint(maxGen, 10))
	w.Header().Set("X-Tile-Elems", strconv.FormatInt(box.Size(), 10))
	w.WriteHeader(http.StatusNoContent)
}

// acceptsWire mirrors the node-side Accept-Encoding check.
func acceptsWire(header string) bool {
	for _, part := range strings.Split(header, ",") {
		c, _, _ := strings.Cut(part, ";")
		if strings.TrimSpace(c) == server.WireEncoding {
			return true
		}
	}
	return false
}

// parseCoords parses "1,2,3" into coordinates.
func parseCoords(s string) ([]int64, error) {
	if s == "" {
		return nil, fmt.Errorf("missing coordinates")
	}
	parts := strings.Split(s, ",")
	out := make([]int64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("coordinate %q: %w", p, err)
		}
		if v < 0 {
			return nil, fmt.Errorf("negative coordinate %d", v)
		}
		out[i] = v
	}
	return out, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
