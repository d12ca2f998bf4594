package main

import (
	"context"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"outcore/internal/layout"
	"outcore/internal/ooc"
)

// The hooks below time calls into each layer's public surface from
// outside; nothing inside the program changes.

// requestOp classifies a data-plane request by route.
func requestOp(r *http.Request) uint8 {
	switch {
	case strings.HasSuffix(r.URL.Path, "/tile") && r.Method == http.MethodGet:
		return opGet
	case strings.HasSuffix(r.URL.Path, "/tile") && r.Method == http.MethodPut:
		return opPut
	case strings.HasSuffix(r.URL.Path, "/scan"):
		return opScan
	}
	return opOther
}

// box2 packs a 2-D box's bounds; other ranks pack as zero.
func box2(b layout.Box) (out [4]int64) {
	if len(b.Lo) == 2 {
		out = [4]int64{b.Lo[0], b.Lo[1], b.Hi[0], b.Hi[1]}
	}
	return out
}

// queryBox parses a tile or scan request's lo/hi query parameters.
func queryBox(r *http.Request) [4]int64 {
	q := r.URL.Query()
	lo, hi := parseCoords(q.Get("lo")), parseCoords(q.Get("hi"))
	if len(lo) != 2 || len(hi) != 2 {
		return [4]int64{}
	}
	return [4]int64{lo[0], lo[1], hi[0], hi[1]}
}

func parseCoords(s string) []int64 {
	var out []int64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return nil
		}
		out = append(out, v)
	}
	return out
}

// handlerHook wraps a server or router handler with a span per request.
// parentOf resolves the span that caused the request from its tenant
// header: the client's open operation, or the router's open span for
// that client when the request is a router fan-out.
func handlerHook(t *tracer, layer uint8, node int16, parentOf func(tenant string) (parent, req uint64), h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.enabled() {
			h.ServeHTTP(w, r)
			return
		}
		tenant := r.Header.Get("X-Tenant")
		s := span{id: t.newID(), layer: layer, op: requestOp(r), node: node, start: t.now(), bytes: r.ContentLength, box: queryBox(r)}
		s.parent, s.req = parentOf(tenant)
		if layer == layerRouter {
			t.setTenant(tenant, s, true)
		}
		h.ServeHTTP(w, r)
		s.end = t.now()
		if layer == layerRouter {
			t.setTenant(tenant, s, false)
		}
		t.add(s)
	})
}

// engineHook decorates an ooc.TileEngine with spans for the calls that
// move tiles when tracing.
type engineHook struct {
	ooc.TileEngine
	t    *tracer
	node int16
}

// begin opens an engine span when tracing.
func (e *engineHook) begin(op uint8, box layout.Box, bytes int64) (span, bool) {
	if !e.t.enabled() {
		return span{}, false
	}
	return span{id: e.t.newID(), layer: layerEngine, op: op, node: e.node, start: e.t.now(), bytes: bytes, box: box2(box)}, true
}

func (e *engineHook) end(s span, on bool) {
	if on {
		s.end = e.t.now()
		e.t.add(s)
	}
}

func (e *engineHook) Acquire(ar *ooc.Array, box layout.Box) (*ooc.Handle, error) {
	s, on := e.begin(opAcquire, box, box.Size()*8)
	h, err := e.TileEngine.Acquire(ar, box)
	e.end(s, on)
	return h, err
}

func (e *engineHook) AcquireAll(reqs []ooc.TileReq) ([]*ooc.Handle, error) {
	var n int64
	for _, r := range reqs {
		n += r.Box.Size() * 8
	}
	var box layout.Box
	if len(reqs) > 0 {
		box = reqs[0].Box
	}
	s, on := e.begin(opAcquireAll, box, n)
	hs, err := e.TileEngine.AcquireAll(reqs)
	e.end(s, on)
	return hs, err
}

func (e *engineHook) Release(h *ooc.Handle, dirty bool) {
	s, on := e.begin(opRelease, h.Tile().Box, 0)
	e.TileEngine.Release(h, dirty)
	e.end(s, on)
}

func (e *engineHook) Flush() error {
	s, on := e.begin(opFlush, layout.Box{}, 0)
	err := e.TileEngine.Flush()
	e.end(s, on)
	return err
}

func (e *engineHook) FlushOverlapping(ar *ooc.Array, box layout.Box) error {
	s, on := e.begin(opFlush, box, box.Size()*8)
	err := e.TileEngine.FlushOverlapping(ar, box)
	e.end(s, on)
	return err
}

// backendHook is installed with ooc.Disk.WrapBackend. It always notes
// each backend's size (the stored footprint of in-memory disks); in a
// traced run it also wraps the backend to count and time every call.
// With compression on, the codec sits outside this wrapper, so the
// calls seen here carry the encoded stripe and WAL-log bytes.
type backendHook struct {
	t    *tracer
	node int16

	sizeWords atomic.Int64
	reads     atomic.Int64
	writes    atomic.Int64
	writeB    atomic.Int64
	mu        sync.Mutex
	syncMs    []float64
}

func (h *backendHook) wrap(name string, b ooc.Backend) ooc.Backend {
	h.sizeWords.Add(b.Size())
	if h.t == nil {
		return b
	}
	return &tracedBackend{Backend: b, h: h}
}

func (h *backendHook) resetCounts() {
	h.reads.Store(0)
	h.writes.Store(0)
	h.writeB.Store(0)
	h.mu.Lock()
	h.syncMs = nil
	h.mu.Unlock()
}

type tracedBackend struct {
	ooc.Backend
	h *backendHook
}

func (b *tracedBackend) call(op uint8, n int64, f func() error) error {
	t := b.h.t
	if !t.enabled() {
		return f()
	}
	// Backend calls often run on engine worker goroutines, so they are
	// not linked to a parent; self times use their time coverage.
	s := span{id: t.newID(), layer: layerBackend, op: op, node: b.h.node, start: t.now(), bytes: n}
	err := f()
	s.end = t.now()
	t.add(s)
	switch op {
	case opRead:
		b.h.reads.Add(1)
	case opWrite:
		b.h.writes.Add(1)
		b.h.writeB.Add(n)
	case opSync:
		b.h.mu.Lock()
		b.h.syncMs = append(b.h.syncMs, float64(s.dur())/1e6)
		b.h.mu.Unlock()
	}
	return err
}

func (b *tracedBackend) ReadAt(buf []float64, off int64) error {
	return b.call(opRead, int64(len(buf))*8, func() error { return b.Backend.ReadAt(buf, off) })
}

func (b *tracedBackend) WriteAt(buf []float64, off int64) error {
	return b.call(opWrite, int64(len(buf))*8, func() error { return b.Backend.WriteAt(buf, off) })
}

func (b *tracedBackend) Sync() error {
	return b.call(opSync, 0, b.Backend.Sync)
}

// countingListener counts accepted connections: router-to-node
// connection churn shows up here.
type countingListener struct {
	net.Listener
	accepts atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepts.Add(1)
	}
	return c, err
}

func listenLocal() (*countingListener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return &countingListener{Listener: ln}, nil
}

// countingDialer counts the connections the closed-loop clients open.
type countingDialer struct {
	d     net.Dialer
	dials atomic.Int64
}

func (c *countingDialer) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	c.dials.Add(1)
	return c.d.DialContext(ctx, network, addr)
}
