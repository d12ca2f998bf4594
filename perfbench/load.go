package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"outcore/internal/layout"
	"outcore/internal/server"
)

// nClients is the closed-loop client count: one per vCPU of the
// 2-vCPU machine the benchmark was tuned on, each on one keep-alive
// connection.
const nClients = 2

// arrayName is the one array every serving workload runs on.
const arrayName = "A"

// traffic describes a serving workload's array and op mix. The array
// is n×n float64, row-major, cut into edge×edge tiles; client c owns
// the tile rows r with r%nClients == c, so it is the only writer of
// every tile it reads and its model of their contents is exact.
type traffic struct {
	n, edge int64
	zipf    float64 // 0 = uniform over the client's tiles
	getPct  int     // the rest after get and put are scans
	putPct  int
	// stripeScans makes a scan cover a whole owned tile row in layout
	// order; otherwise a scan streams one owned tile.
	stripeScans bool
}

func (tr traffic) tilesPerDim() int64 { return tr.n / tr.edge }

// op is one client operation on tile (row, col); scans over stripes
// ignore col.
type op struct {
	kind     uint8
	row, col int32
}

// opGen is a client's deterministic op stream: the same seed and
// client always yield the same sequence.
type opGen struct {
	tr    traffic
	rng   *rand.Rand
	zipf  *rand.Zipf
	tiles []op // owned tiles in popularity order (a seeded permutation)
	rows  []int32
}

func newOpGen(seed int64, client int, tr traffic) *opGen {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(client)))
	nt := tr.tilesPerDim()
	g := &opGen{tr: tr, rng: rng}
	for r := int64(client); r < nt; r += nClients {
		g.rows = append(g.rows, int32(r))
		for c := int64(0); c < nt; c++ {
			g.tiles = append(g.tiles, op{row: int32(r), col: int32(c)})
		}
	}
	rng.Shuffle(len(g.tiles), func(i, j int) { g.tiles[i], g.tiles[j] = g.tiles[j], g.tiles[i] })
	if tr.zipf > 0 {
		g.zipf = rand.NewZipf(rng, tr.zipf, 1, uint64(len(g.tiles)-1))
	}
	return g
}

func (g *opGen) next() op {
	var o op
	if g.zipf != nil {
		o = g.tiles[g.zipf.Uint64()]
	} else {
		o = g.tiles[g.rng.Intn(len(g.tiles))]
	}
	switch p := g.rng.Intn(100); {
	case p < g.tr.getPct:
		o.kind = opGet
	case p < g.tr.getPct+g.tr.putPct:
		o.kind = opPut
	default:
		o.kind = opScan
		if g.tr.stripeScans {
			o.row, o.col = g.rows[g.rng.Intn(len(g.rows))], 0
		}
	}
	return o
}

// valueAt is the model's content of element (i, j) of an n-wide array
// whose tile holding it has been written ver times. Quarter-integer
// values with a smooth stride compress the way sensor-like data does.
func valueAt(n, i, j int64, ver uint32) float64 {
	return float64(((i*n+j)*13+int64(ver)*7919)%65536) * 0.25
}

// unknownVer marks a tile whose last PUT failed: its content is no
// longer known, so reads of it are not checked until the next
// acknowledged PUT.
const unknownVer = math.MaxUint32

// phaseStats is what one client observed during one phase.
type phaseStats struct {
	attempted, ok, failed int64
	lat                   [3][]float64 // ms, by opGet/opPut/opScan
	sliceOK               []int64      // ops completed per slice
	putBytes              int64        // logical bytes acknowledged by PUTs
}

// client is one closed-loop client: it sends its next request only
// after the previous reply has been read and checked.
type client struct {
	id      int
	tenant  string
	base    string
	hc      *http.Client
	gen     *opGen
	tr      traffic
	ver     []uint32 // writes acknowledged per tile, row-major tile ids
	t       *tracer
	cur     atomic.Uint64 // open client span id, while tracing
	corrupt bool          // flip a bit in the next GET payload (checker self-test)
	buf     bytes.Buffer
	payload []byte
	vals    []float64

	checkErrs atomic.Int64
	firstErr  atomic.Pointer[string]
}

func newClient(id int, base string, seed int64, tr traffic, dialer *countingDialer, t *tracer) *client {
	return &client{
		id:     id,
		tenant: "c" + strconv.Itoa(id),
		base:   base,
		hc: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				DialContext:         dialer.DialContext,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		},
		gen: newOpGen(seed, id, tr),
		tr:  tr,
		ver: make([]uint32, tr.tilesPerDim()*tr.tilesPerDim()),
		t:   t,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) tileBox(row, col int32) layout.Box {
	e := c.tr.edge
	return layout.NewBox([]int64{int64(row) * e, int64(col) * e}, []int64{int64(row+1) * e, int64(col+1) * e})
}

func (c *client) verOf(i, j int64) uint32 {
	nt := c.tr.tilesPerDim()
	return c.ver[(i/c.tr.edge)*nt+j/c.tr.edge]
}

// check compares a box-local row-major payload of box with the model.
func (c *client) check(box layout.Box, data []float64) error {
	if int64(len(data)) != box.Size() {
		return fmt.Errorf("box %v: got %d elements, want %d", box, len(data), box.Size())
	}
	k := 0
	for i := box.Lo[0]; i < box.Hi[0]; i++ {
		for j := box.Lo[1]; j < box.Hi[1]; j++ {
			v := c.verOf(i, j)
			if v != unknownVer && math.Float64bits(data[k]) != math.Float64bits(valueAt(c.tr.n, i, j, v)) {
				return fmt.Errorf("box %v: element (%d,%d) = %v, model says %v", box, i, j, data[k], valueAt(c.tr.n, i, j, v))
			}
			k++
		}
	}
	return nil
}

func (c *client) noteCheckErr(err error) {
	c.checkErrs.Add(1)
	msg := err.Error()
	c.firstErr.CompareAndSwap(nil, &msg)
}

func coords(v []int64) string {
	return strconv.FormatInt(v[0], 10) + "," + strconv.FormatInt(v[1], 10)
}

func (c *client) url(route string, box layout.Box) string {
	return c.base + "/v1/arrays/" + arrayName + "/" + route + "?lo=" + coords(box.Lo) + "&hi=" + coords(box.Hi)
}

// do runs one operation and checks its result. A transport or status
// failure is returned; a payload that disagrees with the model is
// recorded as a check failure and returned too.
func (c *client) do(o op) error {
	var s span
	if c.t.enabled() {
		s = span{id: c.t.newID(), layer: layerClient, op: o.kind, node: -1, start: c.t.now()}
		s.req = s.id
		c.cur.Store(s.id)
		defer func() {
			s.end = c.t.now()
			c.t.add(s)
		}()
	}
	switch o.kind {
	case opGet:
		return c.get(c.tileBox(o.row, o.col))
	case opPut:
		return c.put(o.row, o.col)
	default:
		box := c.tileBox(o.row, o.col)
		if c.tr.stripeScans {
			box = layout.NewBox([]int64{int64(o.row) * c.tr.edge, 0}, []int64{int64(o.row+1) * c.tr.edge, c.tr.n})
		}
		return c.scan(box)
	}
}

// statusErr reports an unexpected status; refusals (429, 503) count as
// failures like any other.
func statusErr(resp *http.Response, want int) error {
	if resp.StatusCode == want {
		return nil
	}
	return fmt.Errorf("HTTP %s", resp.Status)
}

func (c *client) get(box layout.Box) error {
	req, err := http.NewRequest(http.MethodGet, c.url("tile", box), nil)
	if err != nil {
		return err
	}
	req.Header.Set("X-Tenant", c.tenant)
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if err := statusErr(resp, http.StatusOK); err != nil {
		return err
	}
	raw := c.buf.Bytes()
	if c.corrupt && len(raw) > 0 {
		c.corrupt = false
		raw[0] ^= 1
	}
	data := c.vals[:0]
	for i := 0; i+8 <= len(raw); i += 8 {
		data = append(data, math.Float64frombits(binary.LittleEndian.Uint64(raw[i:])))
	}
	c.vals = data
	if err := c.check(box, data); err != nil {
		c.noteCheckErr(err)
		return err
	}
	return nil
}

func (c *client) put(row, col int32) error {
	box := c.tileBox(row, col)
	nt := c.tr.tilesPerDim()
	key := int64(row)*nt + int64(col)
	v := c.ver[key]
	if v == unknownVer {
		v = 0
	}
	v++
	c.payload = c.payload[:0]
	for i := box.Lo[0]; i < box.Hi[0]; i++ {
		for j := box.Lo[1]; j < box.Hi[1]; j++ {
			c.payload = binary.LittleEndian.AppendUint64(c.payload, math.Float64bits(valueAt(c.tr.n, i, j, v)))
		}
	}
	req, err := http.NewRequest(http.MethodPut, c.url("tile", box), bytes.NewReader(c.payload))
	if err != nil {
		return err
	}
	req.Header.Set("X-Tenant", c.tenant)
	resp, err := c.hc.Do(req)
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		err = statusErr(resp, http.StatusNoContent)
	}
	if err != nil {
		c.ver[key] = unknownVer
		return err
	}
	c.ver[key] = v
	return nil
}

func (c *client) scan(box layout.Box) error {
	req, err := http.NewRequest(http.MethodGet, c.url("scan", box), nil)
	if err != nil {
		return err
	}
	req.Header.Set("X-Tenant", c.tenant)
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := statusErr(resp, http.StatusOK); err != nil {
		io.Copy(io.Discard, resp.Body)
		return err
	}
	sr := server.NewScanReader(resp.Body)
	var elems, chunks int64
	for {
		ch, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if err := c.check(ch.Box, ch.Data); err != nil {
			c.noteCheckErr(err)
			return err
		}
		elems += ch.Box.Size()
		chunks++
	}
	if elems != box.Size() || uint64(chunks) != sr.Total() {
		err := fmt.Errorf("scan %v: %d elements in %d chunks, want %d elements in %d", box, elems, chunks, box.Size(), sr.Total())
		c.noteCheckErr(err)
		return err
	}
	return nil
}

// runPhase drives every client in a closed loop for d and returns the
// merged observations; slice is the throughput sampling interval.
func runPhase(clients []*client, d, slice time.Duration) phaseStats {
	var wg sync.WaitGroup
	per := make([]phaseStats, len(clients))
	start := time.Now()
	deadline := start.Add(d)
	nslices := int(d / slice)
	if nslices < 1 {
		nslices = 1
	}
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			ps := &per[i]
			ps.sliceOK = make([]int64, nslices)
			for time.Now().Before(deadline) {
				o := c.gen.next()
				t0 := time.Now()
				err := c.do(o)
				done := time.Now()
				ps.attempted++
				if err != nil {
					ps.failed++
					continue
				}
				ps.ok++
				if o.kind == opPut {
					ps.putBytes += c.tr.edge * c.tr.edge * 8
				}
				k := int(done.Sub(start) / slice)
				if k >= nslices {
					k = nslices - 1
				}
				ps.lat[o.kind] = append(ps.lat[o.kind], float64(done.Sub(t0).Nanoseconds())/1e6)
				ps.sliceOK[k]++
			}
		}(i, c)
	}
	wg.Wait()
	var out phaseStats
	out.sliceOK = make([]int64, nslices)
	for _, ps := range per {
		out.attempted += ps.attempted
		out.ok += ps.ok
		out.failed += ps.failed
		out.putBytes += ps.putBytes
		for k := range ps.lat {
			out.lat[k] = append(out.lat[k], ps.lat[k]...)
		}
		for k, n := range ps.sliceOK {
			out.sliceOK[k] += n
		}
	}
	return out
}

// throughput is the median over slices of ops completed per second.
func (ps phaseStats) throughput(slice time.Duration) float64 {
	xs := make([]float64, len(ps.sliceOK))
	for i, n := range ps.sliceOK {
		xs[i] = float64(n) / slice.Seconds()
	}
	return median(xs)
}
