package ooc

// Per-tile float64 compression: the paper's argument is that bytes
// moved through the I/O system, not CPU, bound out-of-core work — so
// the runtime squeezes the bytes at every boundary they cross. The
// codec is Gorilla-style XOR-of-previous delta encoding (Facebook's
// in-memory TSDB scheme, the same family VictoriaMetrics uses on
// disk): smooth scientific data XORs to mostly-zero words, and the
// control-bit framing stores only the meaningful window of each XOR.
// Incompressible payloads fall back to a raw pass-through so the
// encoded form is never meaningfully larger than the input.
//
// # Frame format
//
// Every encoded payload travels inside a self-describing frame shared
// by the disk, WAL and HTTP wire boundaries:
//
//	bytes  0..7   codecID<<56 | elemCount       (little-endian word)
//	bytes  8..15  encodedLen<<32 | CRC-32C      (little-endian word)
//	bytes 16..    payload, zero-padded to a multiple of 8 bytes
//
// codecID is CodecRaw (little-endian float64 bits) or CodecGorilla.
// encodedLen is the unpadded payload byte length; the CRC (Castagnoli,
// the WAL's polynomial) covers exactly those bytes. The 8-byte padding
// lets a frame be carried verbatim as backend words or WAL payload
// words via the same Float64bits packing the WAL already proves
// round-trips exactly.
//
// # Gorilla bit stream
//
// Value 0 is emitted as 64 raw bits. Each subsequent value XORs with
// its predecessor:
//
//	0            identical value
//	1 0 <m>      XOR fits the previous (leading, meaningful) window;
//	             m = the window's meaningful bits
//	1 1 L S <m>  new window: L = 6-bit leading-zero count, S = 6-bit
//	             (meaningful-bit count - 1), then the meaningful bits
//
// Decoding is exact for every bit pattern — NaN payloads, infinities,
// negative zero and denormals included — because no floating-point
// operation ever touches a value; only its bits do.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"slices"
)

// Codec identifiers carried in frame headers. Zero is deliberately
// invalid: an all-zero header (a never-written backend slot, a zeroed
// log) can never be mistaken for a frame.
const (
	CodecRaw     = 1
	CodecGorilla = 2
)

const (
	// frameHeaderBytes is the fixed frame header size (two words).
	frameHeaderBytes = 16
	// maxFrameElems bounds elemCount so encodedLen (<= 8*elems + slack)
	// always fits its 32-bit header field. Far above any tile the
	// runtime moves (the serving layer caps tiles at 2^22 elements).
	maxFrameElems = 1 << 28
)

var errCodecFrame = fmt.Errorf("ooc: corrupt codec frame")

// frameSizeBytes returns the full frame size for an unpadded payload
// length: header plus payload rounded up to whole words.
func frameSizeBytes(encLen int) int {
	return frameHeaderBytes + (encLen+7)/8*8
}

// AppendFrame appends the encoded frame for data to dst and returns
// the extended slice. Gorilla encoding is attempted first; when it
// does not beat the raw size the payload is stored raw, so the frame
// never exceeds frameSizeBytes(8*len(data)).
func AppendFrame(dst []byte, data []float64) []byte {
	n := len(data)
	if n > maxFrameElems {
		panic(fmt.Sprintf("ooc: frame of %d elements exceeds the codec bound %d", n, maxFrameElems))
	}
	start := len(dst)
	raw := n * ElemSize
	// One growth covers every outcome: the gorilla stream is abandoned
	// as soon as it stops beating raw.
	dst = slices.Grow(dst, frameSizeBytes(raw))
	payload := dst[start+frameHeaderBytes : start+frameSizeBytes(raw)]
	codec, encLen := CodecRaw, raw
	if n > 0 {
		if enc := gorillaEncode(payload, data); enc >= 0 {
			codec, encLen = CodecGorilla, enc
		}
	}
	if codec == CodecRaw {
		for i, v := range data {
			binary.LittleEndian.PutUint64(payload[i*ElemSize:], math.Float64bits(v))
		}
	}
	padded := (encLen + 7) / 8 * 8
	clear(payload[encLen:padded])
	crc := crc32.Checksum(payload[:encLen], walCRCTable)
	dst = dst[:start+frameHeaderBytes+padded]
	binary.LittleEndian.PutUint64(dst[start:], uint64(codec)<<56|uint64(uint32(n)))
	binary.LittleEndian.PutUint64(dst[start+8:], uint64(uint32(encLen))<<32|uint64(crc))
	return dst
}

// FrameElems parses and validates a frame header, returning the
// element count the frame decodes to and the total frame size in
// bytes. The slice must hold the whole frame (trailing bytes are
// fine); it does not verify the payload CRC (DecodeFrame does).
func FrameElems(frame []byte) (elems, size int, err error) {
	elems, size, err = frameHeader(frame)
	if err == nil && len(frame) < size {
		return 0, 0, errCodecFrame
	}
	return elems, size, err
}

// frameHeader is FrameElems for callers that only have the 16-byte
// header in hand — the codec disk backend reads the header first and
// then fetches exactly the payload words it declares.
func frameHeader(frame []byte) (elems, size int, err error) {
	if len(frame) < frameHeaderBytes {
		return 0, 0, errCodecFrame
	}
	w0 := binary.LittleEndian.Uint64(frame[0:8])
	w1 := binary.LittleEndian.Uint64(frame[8:16])
	codec := int(w0 >> 56)
	if w0&(uint64(0xFFFFFF)<<32) != 0 {
		return 0, 0, errCodecFrame
	}
	elems = int(uint32(w0))
	encLen := int(uint32(w1 >> 32))
	switch {
	case codec == CodecRaw:
		if encLen != elems*ElemSize {
			return 0, 0, errCodecFrame
		}
	case codec == CodecGorilla:
		// Gorilla is only ever emitted when it beats raw, and it needs
		// at least one full value. Anything else is not ours.
		if elems < 1 || encLen < 8 || encLen >= elems*ElemSize {
			return 0, 0, errCodecFrame
		}
	default:
		return 0, 0, errCodecFrame
	}
	if elems > maxFrameElems {
		return 0, 0, errCodecFrame
	}
	return elems, frameSizeBytes(encLen), nil
}

// DecodeFrame decodes one frame into dst, which must hold exactly the
// frame's element count (callers learn it from FrameElems). It returns
// the frame's total byte size. Any mismatch — truncated buffer, CRC
// failure, malformed bit stream, wrong element count — is an error and
// dst's contents are unspecified.
func DecodeFrame(frame []byte, dst []float64) (int, error) {
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
		rawDecode(dst, payload)
	case CodecGorilla:
		if err := gorillaDecode(payload, dst); err != nil {
			return 0, err
		}
	}
	return size, nil
}

// rawDecode unpacks little-endian float64 bit patterns from payload
// (at least 8*len(dst) bytes) into dst, eight to a step.
func rawDecode(dst []float64, payload []byte) {
	p := payload[:len(dst)*ElemSize]
	for len(dst) >= 8 {
		q, d := p[:64], dst[:8]
		d[0] = math.Float64frombits(binary.LittleEndian.Uint64(q[0:]))
		d[1] = math.Float64frombits(binary.LittleEndian.Uint64(q[8:]))
		d[2] = math.Float64frombits(binary.LittleEndian.Uint64(q[16:]))
		d[3] = math.Float64frombits(binary.LittleEndian.Uint64(q[24:]))
		d[4] = math.Float64frombits(binary.LittleEndian.Uint64(q[32:]))
		d[5] = math.Float64frombits(binary.LittleEndian.Uint64(q[40:]))
		d[6] = math.Float64frombits(binary.LittleEndian.Uint64(q[48:]))
		d[7] = math.Float64frombits(binary.LittleEndian.Uint64(q[56:]))
		dst, p = dst[8:], p[64:]
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[i*ElemSize:]))
	}
}

// The bit writer stores an MSB-first bit stream into a byte slice a
// word at a time: bits collect left-aligned in an accumulator and leave
// as big-endian 64-bit words, which lays them out exactly as a
// bit-at-a-time writer would. Its state — the next store offset pos,
// the accumulator acc and its count of still-empty bits free (1..64) —
// lives in the encoder's locals and passes through putBits by value:
// Go keeps no register across a call, so a struct in memory or an
// append's growth call in the loop would send the state through memory
// on every value.

// putBits adds the low nb bits of v, most significant first, to the
// writer state and returns the new (pos, acc, free); a filled word is
// stored at out[pos:]. 1 <= nb <= 64, and the bits of v above nb must
// be zero. A word that does not fit in out is not stored: pos comes
// back as len(out), marking the stream too long. Shift counts are
// masked where they provably fit, which spares the compiler's
// shift-overflow fixups.
func putBits(out []byte, pos int, acc uint64, free uint, v uint64, nb uint) (int, uint64, uint) {
	if nb < free {
		return pos, acc | v<<((free-nb)&63), free - nb
	}
	if pos+8 > len(out) {
		return len(out), acc, free
	}
	rest := (nb - free) & 63
	binary.BigEndian.PutUint64(out[pos:], acc|v>>rest)
	// v<<1<<(63-rest) is v<<(64-rest), and empty when rest is 0.
	return pos + 8, v << 1 << ((63 - rest) & 63), 64 - rest
}

// bitReader consumes an MSB-first bit stream a word at a time. Bits
// past the end read as zero; overrun reports whether any were
// consumed, which is how a short stream is rejected.
type bitReader struct {
	buf []byte
	pos uint // offset of the next unread bit
}

// peekBits is the number of valid bits peek guarantees: a 64-bit load
// at a byte boundary, less up to 7 bits already consumed in its first
// byte.
const peekBits = 57

// peek returns the next bits left-aligned without consuming them; at
// least peekBits of the result are stream bits (or zero past the end).
func (r bitReader) peek() uint64 {
	i := r.pos >> 3
	if i+8 <= uint(len(r.buf)) {
		return binary.BigEndian.Uint64(r.buf[i:]) << (r.pos & 7)
	}
	return r.peekTail(i) << (r.pos & 7)
}

// peekTail is peek's load for the stream's last 8 bytes, zero-filled.
func (r bitReader) peekTail(i uint) uint64 {
	var w uint64
	for k := i; k < i+8; k++ {
		w <<= 8
		if k < uint(len(r.buf)) {
			w |= uint64(r.buf[k])
		}
	}
	return w
}

// readWide returns the nb bits (33 <= nb <= 64) at the reader's
// position right-aligned, in two loads; the caller advances past them.
// It takes the reader by value so the decoder's reader never has its
// address taken and stays in registers.
func (r bitReader) readWide(nb uint) uint64 {
	hi := r.peek() >> ((96 - nb) & 63)
	r.pos += nb - 32
	return hi<<32 | r.peek()>>32
}

// overrun reports whether reads went past the end of the stream.
func (r bitReader) overrun() bool { return r.pos > 8*uint(len(r.buf)) }

// gorillaEncode writes the XOR-of-previous bit stream for data (at
// least one element) to the start of out (at least 8 bytes) and
// returns its byte length, or -1 if the stream needs len(out) bytes or
// more — AppendFrame stores such a payload raw, so the encoder stops
// as soon as it knows. Each value's control bits, window header and
// meaningful bits go out as one putBits whenever they fit a word, and
// the loop makes no call that returns.
func gorillaEncode(out []byte, data []float64) int {
	prev := math.Float64bits(data[0])
	binary.BigEndian.PutUint64(out, prev)
	pos, acc, free := 8, uint64(0), uint(64)
	// winMask covers the current window's meaningful bits (0 until the
	// first window, so no nonzero XOR fits it). Its width and shift are
	// recounted when needed rather than kept live: the loop is short of
	// registers.
	var winMask uint64
	for i := 1; i < len(data); i++ {
		if pos >= len(out) {
			return -1
		}
		cur := math.Float64bits(data[i])
		xor := cur ^ prev
		if xor == 0 {
			// 0: an identical value, one bit.
			pos, acc, free = putBits(out, pos, acc, free, 0, 1)
			continue
		}
		prev = cur
		if xor&^winMask == 0 {
			// 1 0 <m>: the XOR fits the current window.
			shift := uint(bits.TrailingZeros64(winMask))
			sig := 64 - uint(bits.LeadingZeros64(winMask)) - shift
			m := xor >> (shift & 63)
			if sig <= 62 {
				pos, acc, free = putBits(out, pos, acc, free, 0b10<<(sig&63)|m, 2+sig)
			} else {
				pos, acc, free = putBits(out, pos, acc, free, 0b10, 2)
				pos, acc, free = putBits(out, pos, acc, free, m, sig)
			}
			continue
		}
		// 1 1 L S <m>: open a new window.
		lead := uint(bits.LeadingZeros64(xor))
		trail := uint(bits.TrailingZeros64(xor))
		sig := 64 - lead - trail
		hdr := uint64(0b11<<12 | lead<<6 | (sig - 1))
		if sig <= 64-14 {
			pos, acc, free = putBits(out, pos, acc, free, hdr<<(sig&63)|xor>>(trail&63), 14+sig)
		} else {
			pos, acc, free = putBits(out, pos, acc, free, hdr, 14)
			pos, acc, free = putBits(out, pos, acc, free, xor>>(trail&63), sig)
		}
		winMask = math.MaxUint64 >> (lead & 63) &^ (1<<(trail&63) - 1)
	}
	// The pending bits, zero-padded to a whole byte.
	tail := int(64-free+7) / 8
	if pos+tail >= len(out) {
		return -1
	}
	for ; tail > 0; tail-- {
		out[pos] = byte(acc >> 56)
		acc <<= 8
		pos++
	}
	return pos
}

// gorillaDecode reverses gorillaEncode into dst (the element count
// comes from the frame header). A malformed stream — window reuse
// before any window exists, a window wider than 64 bits, or a stream
// shorter than the element count needs — is an error.
//
// Each value starts with one peek: a run of 0 control bits decodes as
// that many repeats at once, and a value whose control bits, window
// header and meaningful bits all lie within the peeked word needs no
// second load.
func gorillaDecode(payload []byte, dst []float64) error {
	r := bitReader{buf: payload}
	prev := r.readWide(64)
	r.pos = 64
	dst[0] = math.Float64frombits(prev)
	var winSig, winShift uint
	for i := 1; i < len(dst); {
		w := r.peek()
		if w>>63 == 0 {
			// 0: identical values, one bit each.
			run := min(uint(bits.LeadingZeros64(w)), peekBits, uint(len(dst)-i))
			v, fill := math.Float64frombits(prev), dst[i:i+int(run)]
			for k := range fill {
				fill[k] = v
			}
			i += int(run)
			r.pos += run
			continue
		}
		var m uint64
		if w>>62 == 0b10 {
			// 1 0 <m>: reuse the current window.
			if winSig == 0 {
				return errCodecFrame
			}
			if 2+winSig <= peekBits {
				m = w << 2 >> ((64 - winSig) & 63)
				r.pos += 2 + winSig
			} else {
				r.pos += 2
				m = r.readWide(winSig)
				r.pos += winSig
			}
		} else {
			// 1 1 L S <m>: a new window.
			winLead := uint(w>>56) & 63
			winSig = uint(w>>50)&63 + 1
			if winLead+winSig > 64 {
				return errCodecFrame
			}
			winShift = 64 - winLead - winSig
			if 14+winSig <= peekBits {
				m = w << 14 >> ((64 - winSig) & 63)
				r.pos += 14 + winSig
			} else {
				r.pos += 14
				m = r.readWide(winSig)
				r.pos += winSig
			}
		}
		prev ^= m << (winShift & 63)
		dst[i] = math.Float64frombits(prev)
		i++
	}
	if r.overrun() {
		return errCodecFrame
	}
	return nil
}

// frameToWords packs a padded frame (len divisible by 8) into backend
// words, appending to dst.
func frameToWords(dst []float64, frame []byte) []float64 {
	for i := 0; i+8 <= len(frame); i += 8 {
		dst = append(dst, math.Float64frombits(binary.LittleEndian.Uint64(frame[i:])))
	}
	return dst
}

// wordsToFrame unpacks backend words into frame bytes, appending to
// dst.
func wordsToFrame(dst []byte, words []float64) []byte {
	var b [8]byte
	for _, w := range words {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(w))
		dst = append(dst, b[:]...)
	}
	return dst
}
