package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"outcore/internal/cluster"
	"outcore/internal/ir"
	"outcore/internal/layout"
	"outcore/internal/obs"
	"outcore/internal/ooc"
	"outcore/internal/server"
)

// nodeConfig is one tile server's storage stack.
type nodeConfig struct {
	id         string
	dir        string // "" = in-memory disk
	shards     int    // engine shards; with dir, backing files stripe to match
	durable    bool   // WAL + compression + DurablePuts
	cacheTiles int
}

// node is one running tile server (occd's wiring, in-process).
type node struct {
	cfg  nodeConfig
	disk *ooc.Disk
	eng  ooc.TileEngine
	srv  *server.Server
	reg  *obs.Registry
	bh   *backendHook
	ln   *countingListener
	hs   *http.Server
	url  string
	done chan struct{}
}

// maxCallElems is occd's default per-call element cap.
const maxCallElems = 8192

// newDisk builds a node's disk the way occd does for the matching
// flags: -dir, -shards, -compress, -wal, -commit-window 0 and
// -wal-checkpoint 0. Background checkpoints are off, as the WAL's own
// documentation advises for harness runs: a timer-driven compaction
// would land at a different point of every run.
func newDisk(cfg nodeConfig, bh *backendHook, keep bool) *ooc.Disk {
	d := ooc.NewDisk(maxCallElems).WrapBackend(bh.wrap)
	if cfg.durable {
		d.EnableCompression()
	}
	if cfg.dir != "" {
		d.Dir(cfg.dir)
		if keep {
			d.KeepExisting()
		}
		if cfg.shards > 1 {
			d.Stripe(cfg.shards, 0)
		}
	}
	if cfg.durable {
		d.EnableWAL(ooc.WALOptions{Logs: cfg.shards, CommitWindow: 0, Compress: true})
	}
	return d
}

// startNode builds and serves one node. create, when non-nil, makes
// the node's arrays on its disk before the engine starts.
func startNode(cfg nodeConfig, idx int16, t *tracer, parentOf func(string) (uint64, uint64), create func(*ooc.Disk) error) (*node, error) {
	n := &node{cfg: cfg, bh: &backendHook{t: t, node: idx}, reg: obs.NewRegistry(), done: make(chan struct{})}
	n.disk = newDisk(cfg, n.bh, false)
	if create != nil {
		if err := create(n.disk); err != nil {
			n.disk.Close()
			return nil, err
		}
	}
	if _, err := n.disk.ReplayWAL(); err != nil {
		n.disk.Close()
		return nil, err
	}
	eng := server.BuildEngine(n.disk, cfg.shards, ooc.EngineOptions{Workers: 4, CacheTiles: cfg.cacheTiles})
	if t != nil {
		n.eng = &engineHook{TileEngine: eng, t: t, node: idx}
	} else {
		n.eng = eng
	}
	n.srv = server.New(n.disk, n.eng, server.Config{DurablePuts: cfg.durable, NodeID: cfg.id, Obs: &obs.Sink{Metrics: n.reg}})
	ln, err := listenLocal()
	if err != nil {
		n.srv.Drain()
		return nil, err
	}
	n.ln = ln
	n.url = "http://" + ln.Addr().String()
	n.hs = &http.Server{Handler: handlerHook(t, layerServer, idx, parentOf, n.srv.Handler())}
	go func() {
		defer close(n.done)
		n.hs.Serve(ln)
	}()
	return n, nil
}

// stop shuts the listener and drains the server: dirty tiles flushed,
// the disk synced and closed.
func (n *node) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := n.hs.Shutdown(ctx)
	<-n.done
	if derr := n.srv.Drain(); err == nil {
		err = derr
	}
	return err
}

// system is a running serving workload: one node, or a router over
// three nodes.
type system struct {
	tr       traffic
	url      string // what clients talk to
	nodes    []*node
	router   *cluster.Router
	routerHS *http.Server
	routerR  *obs.Registry
	probeEnd chan struct{}
	wg       sync.WaitGroup
	dir      string
	clients  []*client
}

func (s *system) stop() error {
	var first error
	if s.router != nil {
		close(s.probeEnd)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		first = s.routerHS.Shutdown(ctx)
		cancel()
		if err := s.router.Drain(); first == nil {
			first = err
		}
	}
	s.wg.Wait()
	for _, n := range s.nodes {
		if err := n.stop(); first == nil {
			first = err
		}
	}
	return first
}

// clientParent links a request to the closed-loop client operation
// that sent it, by the client's tenant.
func (s *system) clientParent(tenant string) (uint64, uint64) {
	for _, c := range s.clients {
		if c.tenant == tenant {
			id := c.cur.Load()
			return id, id
		}
	}
	return 0, 0
}

// createFilled creates the array on a disk and fills it with the
// model's version-0 contents, without charging workload I/O.
func createFilled(tr traffic) func(*ooc.Disk) error {
	return func(d *ooc.Disk) error {
		ar, err := d.CreateArray(ir.NewArray(arrayName, tr.n, tr.n), layout.RowMajor(tr.n, tr.n))
		if err != nil {
			return err
		}
		ar.Fill(func(c []int64) float64 { return valueAt(tr.n, c[0], c[1], 0) })
		// Start serving with empty logs: the fill is set-up, not load.
		return d.Checkpoint()
	}
}

// startSingle brings up one tile server holding the filled array.
func startSingle(tr traffic, cfg nodeConfig, t *tracer) (*system, error) {
	s := &system{tr: tr, dir: cfg.dir}
	n, err := startNode(cfg, 0, t, s.clientParent, createFilled(tr))
	if err != nil {
		return nil, err
	}
	s.nodes = []*node{n}
	s.url = n.url
	return s, nil
}

// startCluster brings up three in-memory nodes behind a router wired
// as occrouter wires it: cluster.NewNodeClient per node, R=2, the
// default gorilla-coded router↔node hops, a Probe every 2s. The
// routing grid is the client tile edge, so each tile request maps to
// one routing tile.
func startCluster(tr traffic, cacheTiles int, t *tracer) (*system, error) {
	s := &system{tr: tr, routerR: obs.NewRegistry(), probeEnd: make(chan struct{})}
	var clients []*cluster.NodeClient
	for i := 0; i < 3; i++ {
		id := "n" + strconv.Itoa(i+1)
		n, err := startNode(nodeConfig{id: id, shards: 1, cacheTiles: cacheTiles}, int16(i+1), t, routerParent(t), nil)
		if err != nil {
			s.stop()
			return nil, err
		}
		s.nodes = append(s.nodes, n)
		clients = append(clients, cluster.NewNodeClient(id, n.url))
	}
	r, err := cluster.NewRouter(cluster.Options{Nodes: clients, Replicas: 2, TileDim: tr.edge, Obs: &obs.Sink{Metrics: s.routerR}})
	if err != nil {
		s.stop()
		return nil, err
	}
	ln, err := listenLocal()
	if err != nil {
		r.Drain()
		s.stop()
		return nil, err
	}
	s.router = r
	s.url = "http://" + ln.Addr().String()
	s.routerHS = &http.Server{Handler: handlerHook(t, layerRouter, -1, s.clientParent, r.Handler())}
	s.wg.Add(2)
	go func() {
		defer s.wg.Done()
		s.routerHS.Serve(ln)
	}()
	go func() {
		defer s.wg.Done()
		tk := time.NewTicker(2 * time.Second)
		defer tk.Stop()
		for {
			select {
			case <-s.probeEnd:
				return
			case <-tk.C:
				r.Probe()
			}
		}
	}()
	body, _ := json.Marshal(map[string]any{"name": arrayName, "dims": []int64{tr.n, tr.n}})
	resp, err := http.Post(s.url+"/v1/arrays", "application/json", bytes.NewReader(body))
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("creating %s through the router: %s", arrayName, resp.Status)
		}
	}
	if err != nil {
		s.stop()
		return nil, err
	}
	// Every replica starts from the same version-0 contents, so a read
	// served by any of them agrees with the model.
	for _, n := range s.nodes {
		ar := n.disk.ArrayByName(arrayName)
		if ar == nil {
			s.stop()
			return nil, fmt.Errorf("node %s: array %s missing after create", n.cfg.id, arrayName)
		}
		ar.Fill(func(c []int64) float64 { return valueAt(tr.n, c[0], c[1], 0) })
	}
	return s, nil
}

// routerParent links a node request to the router span open for the
// tenant the router stamped on it.
func routerParent(t *tracer) func(string) (uint64, uint64) {
	return func(tenant string) (uint64, uint64) {
		if s, ok := t.tenantSpan(tenant); ok {
			return s.id, s.req
		}
		return 0, 0
	}
}

// modelOf merges the clients' per-tile versions: each tile's owner
// holds its authoritative count.
func modelOf(tr traffic, clients []*client) []uint32 {
	nt := tr.tilesPerDim()
	ver := make([]uint32, nt*nt)
	for k := range ver {
		owner := int(k/int(nt)) % nClients
		if owner < len(clients) {
			ver[k] = clients[owner].ver[k]
		}
	}
	return ver
}

// readBack GETs every tile through url and checks it against ver.
func readBack(url string, tr traffic, ver []uint32) error {
	c := newClient(0, url, 0, tr, &countingDialer{}, nil)
	defer c.close()
	copy(c.ver, ver)
	nt := int32(tr.tilesPerDim())
	for r := int32(0); r < nt; r++ {
		for col := int32(0); col < nt; col++ {
			if err := c.get(c.tileBox(r, col)); err != nil {
				return fmt.Errorf("read-back of tile (%d,%d): %w", r, col, err)
			}
		}
	}
	return nil
}

// reopenCheck reopens a drained durable node's directory (WAL replay
// included) and compares every element with the model.
func reopenCheck(cfg nodeConfig, tr traffic, ver []uint32) error {
	d := newDisk(cfg, &backendHook{}, true)
	defer d.Close()
	ar, err := d.CreateArray(ir.NewArray(arrayName, tr.n, tr.n), layout.RowMajor(tr.n, tr.n))
	if err != nil {
		return err
	}
	if _, err := d.ReplayWAL(); err != nil {
		return err
	}
	tile, err := ar.ReadTile(layout.NewBox([]int64{0, 0}, []int64{tr.n, tr.n}))
	if err != nil {
		return err
	}
	c := &client{tr: tr, ver: ver}
	if err := c.check(tile.Box, tile.Data()); err != nil {
		return fmt.Errorf("after reopen and WAL replay: %w", err)
	}
	return nil
}

// storedBytes sums the space the files under dir occupy, WAL logs
// excepted: a log file keeps the blocks of its high-water mark after a
// checkpoint empties it, and that mark follows how many PUTs the run
// managed, not how the data is stored.
func storedBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		if strings.HasPrefix(e.Name(), "__wal") && strings.HasSuffix(e.Name(), ".log") {
			return nil
		}
		var st syscall.Stat_t
		if err := syscall.Stat(path, &st); err != nil {
			return err
		}
		total += st.Blocks * 512
		return nil
	})
	return total, err
}

var errCheck = errors.New("output check failed")

// removeAll deletes a data directory, tolerating one already gone.
func removeAll(dir string) {
	if dir != "" {
		os.RemoveAll(dir)
	}
}
