package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span layers, one per wrapped boundary.
const (
	layerClient  uint8 = iota // a closed-loop client operation
	layerRouter               // cluster router handler
	layerServer               // tile-server (node) handler
	layerEngine               // ooc.TileEngine call
	layerBackend              // ooc.Backend call, below the codec
)

var layerNames = [...]string{"client", "router", "server", "engine", "backend"}

// Span operations. Client, router and server spans use the request
// kinds; engine and backend spans use the call they wrap.
const (
	opGet uint8 = iota
	opPut
	opScan
	opOther
	opAcquire
	opAcquireAll
	opRelease
	opFlush
	opRead
	opWrite
	opSync
)

var opNames = [...]string{"get", "put", "scan", "other", "acquire", "acquire_all", "release", "flush", "read", "write", "sync"}

// span is one timed call at a boundary. Times are nanoseconds since
// the tracer's epoch. req is the closed-loop client operation that
// caused the span (0 when none did, e.g. background write-back).
type span struct {
	id, parent, req uint64
	start, end      int64
	bytes           int64
	// box is the 2-D tile box a handler or engine span concerns (lo0,
	// lo1, hi0, hi1); engine spans are linked to the handler span whose
	// box contains theirs.
	box       [4]int64
	layer, op uint8
	node      int16 // server instance; -1 for the router and clients
}

func (s span) dur() int64 { return s.end - s.start }

// tracer keeps every span in memory until the run ends; it never drops
// one. While off, the hooks record nothing and cost one atomic load.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	ids   atomic.Uint64

	mu sync.Mutex
	// blocks hold the spans in fixed-size blocks, so recording never
	// copies what it already holds.
	blocks [][]span
	// byTenant maps a client's tenant to its open router span: nodes
	// see the tenant the router stamps on its fan-out.
	byTenant map[string]span
}

func newTracer() *tracer {
	return &tracer{
		epoch:    time.Now(),
		byTenant: map[string]span{},
	}
}

func (t *tracer) now() int64 { return time.Since(t.epoch).Nanoseconds() }

// enabled reports whether spans are being recorded; t may be nil.
func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

// add records a finished span.
func (t *tracer) add(s span) {
	t.mu.Lock()
	if n := len(t.blocks); n == 0 || len(t.blocks[n-1]) == cap(t.blocks[n-1]) {
		t.blocks = append(t.blocks, make([]span, 0, spanBlock))
	}
	b := &t.blocks[len(t.blocks)-1]
	*b = append(*b, s)
	t.mu.Unlock()
}

const spanBlock = 1 << 14

func (t *tracer) setTenant(tenant string, s span, open bool) {
	t.mu.Lock()
	if open {
		t.byTenant[tenant] = s
	} else {
		delete(t.byTenant, tenant)
	}
	t.mu.Unlock()
}

func (t *tracer) tenantSpan(tenant string) (span, bool) {
	t.mu.Lock()
	s, ok := t.byTenant[tenant]
	t.mu.Unlock()
	return s, ok
}

// take returns the recorded spans and clears the recorder.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var n int
	for _, b := range t.blocks {
		n += len(b)
	}
	out := make([]span, 0, n)
	for _, b := range t.blocks {
		out = append(out, b...)
	}
	t.blocks = nil
	return out
}

// writeChrome writes spans in the Chrome trace_event JSON format (the
// format obs.Trace.WriteChrome emits): complete "X" events with
// microsecond timestamps, one process per server instance, one thread
// per layer, and the span/parent/request ids in args.
func writeChrome(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	fmt.Fprint(bw, `{"displayTimeUnit":"ms","traceEvents":[`+"\n")
	fmt.Fprint(bw, `{"ph":"M","pid":0,"name":"process_name","args":{"name":"clients and router"}}`)
	for _, s := range spans {
		fmt.Fprintf(bw, ",\n"+`{"ph":"X","pid":%d,"tid":%d,"ts":%.3f,"dur":%.3f,"name":"%s %s","cat":"%s","args":{"id":%d,"parent":%d,"req":%d,"bytes":%d}}`,
			s.node+1, s.layer, float64(s.start)/1e3, float64(s.dur())/1e3,
			layerNames[s.layer], opNames[s.op], layerNames[s.layer], s.id, s.parent, s.req, s.bytes)
	}
	fmt.Fprint(bw, "\n]}\n")
	return bw.Flush()
}

// linkEngineSpans gives each engine span without a parent the handler
// span of the same server that was open around it and whose box holds
// its box, and that span's request. Engine calls run on the handler's
// goroutine, which Go does not expose, so the link is made afterwards
// from time and box; when two handlers qualify the later-started one
// wins.
func linkEngineSpans(spans []span) {
	idx := make([]int, 0, len(spans))
	for i, s := range spans {
		if (s.layer == layerServer || s.layer == layerEngine) && !(s.layer == layerEngine && s.parent != 0) {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(a, b int) bool {
		sa, sb := spans[idx[a]], spans[idx[b]]
		if sa.start != sb.start {
			return sa.start < sb.start
		}
		return sa.layer < sb.layer // a handler before the engine call it makes
	})
	open := map[int16][]int{} // server → handler spans not yet ended
	for _, i := range idx {
		s := &spans[i]
		live := open[s.node][:0]
		for _, h := range open[s.node] {
			if spans[h].end >= s.start {
				live = append(live, h)
			}
		}
		open[s.node] = live
		if s.layer == layerServer {
			open[s.node] = append(open[s.node], i)
			continue
		}
		for k := len(live) - 1; k >= 0; k-- {
			h := spans[live[k]]
			if h.end >= s.end && h.box[0] <= s.box[0] && h.box[1] <= s.box[1] && s.box[2] <= h.box[2] && s.box[3] <= h.box[3] {
				s.parent, s.req = h.id, h.req
				break
			}
		}
	}
}
