package ooc

// The reference codec: the original bit-at-a-time Gorilla bit I/O,
// kept verbatim (identifiers prefixed with ref) as the oracle the
// word-at-a-time codec in codec.go is differentially tested and
// benchmarked against. It defines the format: whatever these functions
// write or accept, the production codec must write or accept, bit for
// bit.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

// refAppendFrame is AppendFrame over the reference encoder.
func refAppendFrame(dst []byte, data []float64) []byte {
	n := len(data)
	if n > maxFrameElems {
		panic(fmt.Sprintf("ooc: frame of %d elements exceeds the codec bound %d", n, maxFrameElems))
	}
	start := len(dst)
	var hdr [frameHeaderBytes]byte
	dst = append(dst, hdr[:]...)
	codec := CodecRaw
	if n > 0 {
		dst = refGorillaEncode(dst, data)
		codec = CodecGorilla
	}
	encLen := len(dst) - start - frameHeaderBytes
	if codec == CodecGorilla && encLen >= n*ElemSize {
		// Incompressible: rewind and store the raw bit patterns.
		dst = dst[:start+frameHeaderBytes]
		var b [8]byte
		for _, v := range data {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			dst = append(dst, b[:]...)
		}
		encLen = n * ElemSize
		codec = CodecRaw
	}
	crc := crc32.Checksum(dst[start+frameHeaderBytes:], walCRCTable)
	binary.LittleEndian.PutUint64(dst[start:], uint64(codec)<<56|uint64(uint32(n)))
	binary.LittleEndian.PutUint64(dst[start+8:], uint64(uint32(encLen))<<32|uint64(crc))
	for pad := (8 - encLen%8) % 8; pad > 0; pad-- {
		dst = append(dst, 0)
	}
	return dst
}

// refDecodeFrame is DecodeFrame over the reference decoder.
func refDecodeFrame(frame []byte, dst []float64) (int, error) {
	elems, size, err := FrameElems(frame)
	if err != nil {
		return 0, err
	}
	if elems != len(dst) {
		return 0, fmt.Errorf("ooc: codec frame holds %d elements, want %d", elems, len(dst))
	}
	w0 := binary.LittleEndian.Uint64(frame[0:8])
	w1 := binary.LittleEndian.Uint64(frame[8:16])
	encLen := int(uint32(w1 >> 32))
	payload := frame[frameHeaderBytes : frameHeaderBytes+encLen]
	if crc32.Checksum(payload, walCRCTable) != uint32(w1) {
		return 0, errCodecFrame
	}
	switch int(w0 >> 56) {
	case CodecRaw:
		for i := range dst {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[i*ElemSize:]))
		}
	case CodecGorilla:
		if err := refGorillaDecode(payload, dst); err != nil {
			return 0, err
		}
	}
	return size, nil
}

// refBitWriter appends an MSB-first bit stream to a byte slice.
type refBitWriter struct {
	buf []byte
	cur byte
	n   uint8 // bits buffered in cur (0..7)
}

func (w *refBitWriter) writeBit(b uint64) {
	w.cur = w.cur<<1 | byte(b&1)
	w.n++
	if w.n == 8 {
		w.buf = append(w.buf, w.cur)
		w.cur, w.n = 0, 0
	}
}

func (w *refBitWriter) writeBits(v uint64, nb uint) {
	for i := int(nb) - 1; i >= 0; i-- {
		w.writeBit(v >> uint(i))
	}
}

// finish pads the last partial byte with zero bits and returns the
// stream.
func (w *refBitWriter) finish() []byte {
	if w.n > 0 {
		w.buf = append(w.buf, w.cur<<(8-w.n))
		w.cur, w.n = 0, 0
	}
	return w.buf
}

// refBitReader consumes an MSB-first bit stream; overruns latch err.
type refBitReader struct {
	buf []byte
	pos int
	n   uint8
	err bool
}

func (r *refBitReader) readBit() uint64 {
	if r.pos >= len(r.buf) {
		r.err = true
		return 0
	}
	b := uint64(r.buf[r.pos]>>(7-r.n)) & 1
	r.n++
	if r.n == 8 {
		r.n = 0
		r.pos++
	}
	return b
}

func (r *refBitReader) readBits(nb uint) uint64 {
	var v uint64
	for i := uint(0); i < nb; i++ {
		v = v<<1 | r.readBit()
	}
	return v
}

// refGorillaEncode appends the XOR-of-previous bit stream for data (at
// least one element) to dst.
func refGorillaEncode(dst []byte, data []float64) []byte {
	w := refBitWriter{buf: dst}
	prev := math.Float64bits(data[0])
	w.writeBits(prev, 64)
	var winLead, winSig uint
	for _, f := range data[1:] {
		cur := math.Float64bits(f)
		xor := cur ^ prev
		prev = cur
		if xor == 0 {
			w.writeBit(0)
			continue
		}
		w.writeBit(1)
		lead := uint(bits.LeadingZeros64(xor))
		trail := uint(bits.TrailingZeros64(xor))
		if winSig > 0 && lead >= winLead && trail >= 64-winLead-winSig {
			w.writeBit(0)
			w.writeBits(xor>>(64-winLead-winSig), winSig)
			continue
		}
		sig := 64 - lead - trail
		w.writeBit(1)
		w.writeBits(uint64(lead), 6)
		w.writeBits(uint64(sig-1), 6)
		w.writeBits(xor>>trail, sig)
		winLead, winSig = lead, sig
	}
	return w.finish()
}

// refGorillaDecode reverses refGorillaEncode into dst (the element
// count comes from the frame header). A malformed stream — window reuse
// before any window exists, a window wider than 64 bits, or a stream
// shorter than the element count needs — is an error.
func refGorillaDecode(payload []byte, dst []float64) error {
	r := refBitReader{buf: payload}
	prev := r.readBits(64)
	dst[0] = math.Float64frombits(prev)
	var winLead, winSig uint
	for i := 1; i < len(dst); i++ {
		if r.readBit() == 0 {
			dst[i] = math.Float64frombits(prev)
			continue
		}
		if r.readBit() == 0 {
			if winSig == 0 {
				return errCodecFrame
			}
			prev ^= r.readBits(winSig) << (64 - winLead - winSig)
		} else {
			winLead = uint(r.readBits(6))
			winSig = uint(r.readBits(6)) + 1
			if winLead+winSig > 64 {
				return errCodecFrame
			}
			prev ^= r.readBits(winSig) << (64 - winLead - winSig)
		}
		dst[i] = math.Float64frombits(prev)
	}
	if r.err {
		return errCodecFrame
	}
	return nil
}

// gorillaStream is the whole gorilla bit stream for data (at least one
// element), however long: gorillaEncode into more than the worst case,
// 78 bits a value.
func gorillaStream(data []float64) []byte {
	out := make([]byte, 10*len(data)+8)
	n := gorillaEncode(out, data)
	if n < 0 {
		panic("gorillaEncode overran its worst-case bound")
	}
	return out[:n]
}

// checkEncodeMatchesRef fails unless the production encoder writes
// exactly the reference bytes for data, both as a bare bit stream and
// as a full frame.
func checkEncodeMatchesRef(t *testing.T, data []float64) {
	t.Helper()
	if len(data) > 0 {
		got, want := gorillaStream(data), refGorillaEncode(nil, data)
		if !bytes.Equal(got, want) {
			t.Fatalf("gorilla stream differs from the reference for %d elements:\n got %x\nwant %x", len(data), got, want)
		}
	}
	got, want := AppendFrame(nil, data), refAppendFrame(nil, data)
	if !bytes.Equal(got, want) {
		t.Fatalf("frame differs from the reference for %d elements:\n got %x\nwant %x", len(data), got, want)
	}
}

// checkStreamDecodeMatchesRef fails unless both decoders accept or
// both reject payload as an n-element bit stream, and, when they
// accept, decode identical bits.
func checkStreamDecodeMatchesRef(t *testing.T, payload []byte, n int) {
	t.Helper()
	if n < 1 {
		return
	}
	got, want := make([]float64, n), make([]float64, n)
	gotErr, wantErr := gorillaDecode(payload, got), refGorillaDecode(payload, want)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("stream %x as %d elements: decode error %v, reference %v", payload, n, gotErr, wantErr)
	}
	if gotErr == nil {
		checkSameBits(t, got, want)
	}
}

// checkFrameDecodeMatchesRef is checkStreamDecodeMatchesRef for whole
// frames, sizing the destination from the header when it parses.
func checkFrameDecodeMatchesRef(t *testing.T, frame []byte) {
	t.Helper()
	n := len(frame) / ElemSize
	if elems, _, err := FrameElems(frame); err == nil {
		n = elems
	}
	if n > 8*len(frame) {
		// The stream cannot hold that many elements (each costs at
		// least one bit), so both decoders reject it; skip rather than
		// allocate the up to 2^28 elements a forged header may claim.
		return
	}
	got, want := make([]float64, n), make([]float64, n)
	gotN, gotErr := DecodeFrame(frame, got)
	wantN, wantErr := refDecodeFrame(frame, want)
	if (gotErr == nil) != (wantErr == nil) || gotN != wantN {
		t.Fatalf("frame %x: decode (%d, %v), reference (%d, %v)", frame, gotN, gotErr, wantN, wantErr)
	}
	if gotErr == nil {
		checkSameBits(t, got, want)
	}
}

func checkSameBits(t *testing.T, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("element %d: decoded %016x, reference %016x", i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// reframe rewrites a gorilla frame's header for a mutated payload —
// new encoded length, fresh CRC — so the mutation reaches the bit
// stream decoder instead of stopping at the checksum.
func reframe(elems int, payload []byte) []byte {
	f := make([]byte, frameHeaderBytes, frameSizeBytes(len(payload)))
	binary.LittleEndian.PutUint64(f[0:], uint64(CodecGorilla)<<56|uint64(uint32(elems)))
	binary.LittleEndian.PutUint64(f[8:], uint64(uint32(len(payload)))<<32|uint64(crc32.Checksum(payload, walCRCTable)))
	f = append(f, payload...)
	for len(f)%8 != 0 {
		f = append(f, 0)
	}
	return f
}

// shapedPayload derives a payload from generator inputs so the quick
// and fuzz properties reach every encoder branch: runs of repeats
// (0 bits), small XORs that reuse the window (10 prefix), window
// changes (11 prefix), full 64-bit windows, and IEEE specials.
func shapedPayload(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	data := make([]float64, n)
	v := rng.Uint64()
	for i := range data {
		switch rng.Intn(6) {
		case 0: // repeat
		case 1: // low-bit change: reuses a narrow window
			v ^= uint64(rng.Intn(16)+1) << uint(rng.Intn(4))
		case 2: // mid-mantissa change
			v ^= uint64(rng.Intn(1<<12)+1) << uint(20+rng.Intn(20))
		case 3: // full-width change: a 64-bit window
			v ^= 1<<63 | 1 | rng.Uint64()
		case 4: // arbitrary
			v = rng.Uint64()
		default: // IEEE specials
			v = math.Float64bits([]float64{0, math.Copysign(0, -1), math.Inf(1), math.NaN(), math.SmallestNonzeroFloat64}[rng.Intn(5)])
		}
		data[i] = math.Float64frombits(v)
	}
	return data
}

// strideAfter is the step of a sweep over [0, n): 1 below dense, then
// about samples evenly spaced steps over the rest.
func strideAfter(i, dense, n, samples int) int {
	if i < dense {
		return 1
	}
	return max(1, (n-dense)/samples)
}

// TestCodecDifferential checks the word-at-a-time codec against the
// reference on every codecCases shape, on generated payloads, and on
// truncated and bit-flipped streams: identical frame bytes, the same
// accept/reject verdict, and identical decoded bits.
func TestCodecDifferential(t *testing.T) {
	for name, data := range codecCases() {
		t.Run(name, func(t *testing.T) {
			checkEncodeMatchesRef(t, data)
			frame := AppendFrame(nil, data)
			checkFrameDecodeMatchesRef(t, frame)
			if frame[7] != CodecGorilla {
				return
			}
			encLen := int(binary.LittleEndian.Uint32(frame[12:16]))
			payload := frame[frameHeaderBytes : frameHeaderBytes+encLen]
			// Truncations: every prefix up to 64 bytes, then ~128 more
			// spread over the rest, decoded directly and through a
			// re-checksummed frame.
			for cut := 0; cut < len(payload); cut += strideAfter(cut, 64, len(payload), 128) {
				checkStreamDecodeMatchesRef(t, payload[:cut], len(data))
				checkFrameDecodeMatchesRef(t, reframe(len(data), payload[:cut]))
			}
			// Single-bit flips at every bit of the first 64 bytes and at
			// ~512 odd-strided bits through the rest, so control bits,
			// window headers and meaningful bits all get hit.
			for bit := 0; bit < 8*len(payload); bit += strideAfter(bit, 512, 8*len(payload), 512) | 1 {
				m := append([]byte(nil), payload...)
				m[bit/8] ^= 0x80 >> (bit % 8)
				checkStreamDecodeMatchesRef(t, m, len(data))
				checkFrameDecodeMatchesRef(t, reframe(len(data), m))
			}
			// Wrong element counts over an intact stream.
			for _, n := range []int{1, len(data) - 1, len(data) + 1, 2 * len(data)} {
				checkStreamDecodeMatchesRef(t, payload, n)
			}
		})
	}

	// Streams within a word of the raw size, where AppendFrame's choice
	// between gorilla and raw flips; the encoder stops early there.
	near := map[int]bool{}
	for seed := int64(0); seed < 3000; seed++ {
		data := shapedPayload(seed, 2+int(seed%40))
		if d := len(refGorillaEncode(nil, data)) - len(data)*ElemSize; d >= -8 && d <= 8 {
			near[d] = true
			checkEncodeMatchesRef(t, data)
		}
	}
	for _, d := range []int{-1, 0, 1} {
		if !near[d] {
			t.Errorf("no generated stream ended %d bytes from the raw size", d)
		}
	}

	quickCfg := &quick.Config{MaxCount: 300}
	if err := quick.Check(func(data []float64) bool {
		checkEncodeMatchesRef(t, data)
		checkFrameDecodeMatchesRef(t, AppendFrame(nil, data))
		return true
	}, quickCfg); err != nil {
		t.Fatal(err)
	}
	if err := quick.Check(func(seed int64, n uint16) bool {
		data := shapedPayload(seed, int(n%2048))
		checkEncodeMatchesRef(t, data)
		checkFrameDecodeMatchesRef(t, AppendFrame(nil, data))
		return true
	}, quickCfg); err != nil {
		t.Fatal(err)
	}
	if err := quick.Check(func(stream []byte, n uint16) bool {
		checkStreamDecodeMatchesRef(t, stream, int(n%512)+1)
		return true
	}, quickCfg); err != nil {
		t.Fatal(err)
	}
}

// FuzzCodecDifferential drives the production codec and the reference
// with the same fuzz input, three ways: the bytes as float64s to
// encode, the seed of a shaped payload to encode, and the bytes as a
// bit stream (and as a frame) to decode. Any difference in encoded
// bytes, accept/reject verdict or decoded bits fails.
//
// Run with: go test ./internal/ooc/ -fuzz FuzzCodecDifferential
func FuzzCodecDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0x40, 0x34, 0, 0, 0, 0, 0, 0, 0xc0, 0x01})
	f.Add(AppendFrame(nil, []float64{1, 2, 3}))
	f.Add(AppendFrame(nil, codecCases()["quant-sine"][:64]))
	f.Add(AppendFrame(nil, []float64{math.NaN(), math.Inf(1), math.SmallestNonzeroFloat64, 0, 0, -1}))

	f.Fuzz(func(t *testing.T, raw []byte) {
		data := make([]float64, len(raw)/ElemSize)
		for i := range data {
			data[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*ElemSize:]))
		}
		checkEncodeMatchesRef(t, data)

		var seed [8]byte
		copy(seed[:], raw)
		checkEncodeMatchesRef(t, shapedPayload(int64(binary.LittleEndian.Uint64(seed[:])), len(raw)))

		if len(raw) > 0 {
			checkStreamDecodeMatchesRef(t, raw[1:], int(raw[0])+1)
		}
		checkFrameDecodeMatchesRef(t, raw)
	})
}

func BenchmarkFrameEncodeOracle(b *testing.B) { benchFrameEncode(b, refAppendFrame) }
func BenchmarkFrameDecodeOracle(b *testing.B) { benchFrameDecode(b, refDecodeFrame) }
