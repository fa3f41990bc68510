package compress

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"exaloglog/internal/bitpack"
)

// Blob codec: a self-describing container for compressed sketch blobs.
//
// Layout: "ELC1" | method byte | uvarint rawLen | [uvarint midLen] | payload.
// The magic is distinct from every raw blob magic in the system ("EL\x01"
// core sketches, "ELW1" window counters, "ELSS" snapshots), so DecodeBlob
// can sniff it and pass anything else through unchanged — which is what
// lets EncodeBlob hand back the raw blob whenever it cannot win.
//
// Methods form a cheap-first ladder:
//
//	'r'  stored       payload is rawLen raw bytes (only used when raw
//	                  data happens to start with the codec magic and
//	                  must be framed to stay sniffable)
//	's'  sparse       varint-coded nonzero registers of a dense core
//	                  sketch blob; payload re-expands to the exact
//	                  original bytes
//	'e'  entropy      payload is the range coder run over the raw bytes
//	                  under an adaptive order-1 model
//	'z'  sparse+entropy  sparse payload (midLen bytes) further entropy
//	                  coded — midLen is needed to drive the bit decoder
//
// EncodeBlob only emits a container when it is strictly smaller than the
// input, so callers can use it unconditionally; DecodeBlob bounds every
// allocation by the caller's limit before trusting any claimed length
// (mirroring the FromBinary / window pre-allocation clamps).
const (
	codecMagic = "ELC1"

	// tokenMagic opens a sparse-mode hash-token blob (see
	// internal/core/hybrid.go).
	tokenMagic = "ELT3"

	methodStored        = 'r'
	methodSparse        = 's'
	methodEntropy       = 'e'
	methodSparseEntropy = 'z'

	// maxEntropyInput caps how much data the adaptive coder is asked to
	// chew per blob: it runs at roughly 25–50 MB/s, so 64 KiB keeps the
	// worst-case encode cost in the low milliseconds. Larger blobs still
	// get the (near-free) sparse layer.
	maxEntropyInput = 64 << 10

	// Core sketch header layout (see internal/core/serialize.go): magic
	// "EL", version, t, d, p, two reserved zero bytes.
	coreHeaderSize = 8
)

// ErrCodec is wrapped by every decode failure so callers can distinguish
// a malformed container from other I/O errors.
var ErrCodec = errors.New("compress: bad blob")

// IsCompressed reports whether data carries the codec container magic.
func IsCompressed(data []byte) bool {
	return len(data) >= len(codecMagic) && string(data[:len(codecMagic)]) == codecMagic
}

// entropyModels pools the order-1 context models (64 Ki contexts ≈ 128 KiB
// each) so per-blob encode/decode does not allocate or re-zero them from
// scratch more often than needed.
var entropyModels = sync.Pool{
	New: func() any { return NewModel(256 * 256) },
}

// EncodeBlob compresses a serialized sketch/window blob. The result is
// either a codec container strictly smaller than raw, or raw itself
// (unchanged, zero-copy) when no method wins. The input is never modified.
// A token blob is returned as it is: it is entropy-coded already — prefixes
// as quotient and remainder, zero counts in unary — and the order-1 coder,
// run over it once to see, gave 1.000× up to 1000 tokens and 1.008× at
// 20 000, for 0.1 to 1 ms a blob.
func EncodeBlob(raw []byte) []byte {
	if len(raw) >= len(tokenMagic) && string(raw[:len(tokenMagic)]) == tokenMagic {
		return raw
	}
	best := raw
	sparse, sparseOK := sparseEncode(raw)
	if sparseOK {
		if c := container(methodSparse, len(raw), 0, sparse); len(c) < len(best) {
			best = c
		}
	}
	// Entropy layer: only when the cheap layer left meaningful headroom
	// and the input is small enough for the coder's throughput.
	if len(best)*2 > len(raw) {
		in, method := raw, byte(methodEntropy)
		if sparseOK && len(sparse) < len(raw) {
			in, method = sparse, methodSparseEntropy
		}
		if len(in) <= maxEntropyInput {
			enc := entropyEncode(in)
			mid := 0
			if method == methodSparseEntropy {
				mid = len(in)
			}
			if c := container(method, len(raw), mid, enc); len(c) < len(best) {
				best = c
			}
		}
	}
	if len(best) == len(raw) && IsCompressed(raw) {
		// Raw data colliding with the codec magic must be framed so the
		// decoder's sniff stays unambiguous. Sketch blobs never collide
		// (their magics differ); this guards arbitrary callers.
		return container(methodStored, len(raw), 0, raw)
	}
	return best
}

// DecodeBlob reverses EncodeBlob. Input without the codec magic is
// returned unchanged (a raw blob the encoder declined to shrink). maxLen
// bounds the decoded size: any container claiming more is rejected
// before a single byte is allocated.
func DecodeBlob(data []byte, maxLen int) ([]byte, error) {
	if !IsCompressed(data) {
		if len(data) > maxLen {
			return nil, fmt.Errorf("%w: %d raw bytes exceed limit %d", ErrCodec, len(data), maxLen)
		}
		return data, nil
	}
	rest := data[len(codecMagic):]
	if len(rest) == 0 {
		return nil, fmt.Errorf("%w: truncated header", ErrCodec)
	}
	method := rest[0]
	rest = rest[1:]
	rawLen64, n := binary.Uvarint(rest)
	if n <= 0 || rawLen64 > uint64(maxLen) {
		return nil, fmt.Errorf("%w: bad raw length", ErrCodec)
	}
	rest = rest[n:]
	rawLen := int(rawLen64)
	switch method {
	case methodStored:
		if len(rest) != rawLen {
			return nil, fmt.Errorf("%w: stored payload is %d bytes, want %d", ErrCodec, len(rest), rawLen)
		}
		return rest, nil
	case methodSparse:
		return sparseDecode(rest, rawLen)
	case methodEntropy:
		return entropyDecode(rest, rawLen), nil
	case methodSparseEntropy:
		midLen64, n := binary.Uvarint(rest)
		if n <= 0 || midLen64 > uint64(maxLen) {
			return nil, fmt.Errorf("%w: bad sparse length", ErrCodec)
		}
		sparse := entropyDecode(rest[n:], int(midLen64))
		out, err := sparseDecode(sparse, rawLen)
		if err != nil {
			return nil, err
		}
		return out, nil
	default:
		return nil, fmt.Errorf("%w: unknown method %q", ErrCodec, method)
	}
}

func container(method byte, rawLen, midLen int, payload []byte) []byte {
	buf := make([]byte, 0, len(codecMagic)+1+2*binary.MaxVarintLen32+len(payload))
	buf = append(buf, codecMagic...)
	buf = append(buf, method)
	buf = binary.AppendUvarint(buf, uint64(rawLen))
	if method == methodSparseEntropy {
		buf = binary.AppendUvarint(buf, uint64(midLen))
	}
	return append(buf, payload...)
}

// sparseGeometry validates a dense core-sketch blob header and returns
// its register geometry. ok is false for anything that is not byte-exactly
// a dense serialized core sketch (wrong magic, nonzero reserved bytes,
// out-of-range parameters, trailing or missing bytes) — sparse coding
// must reproduce the original blob bit for bit, so it only ever touches
// blobs whose entire content is determined by (header, registers).
func sparseGeometry(blob []byte) (m int, w uint, ok bool) {
	if len(blob) < coreHeaderSize || blob[0] != 'E' || blob[1] != 'L' || blob[2] != 1 {
		return 0, 0, false
	}
	if blob[6] != 0 || blob[7] != 0 {
		return 0, 0, false
	}
	t, d, p := int(blob[3]), int(blob[4]), int(blob[5])
	w = uint(6 + t + d)
	if w > bitpack.MaxWidth || p < 1 || p > 26 {
		return 0, 0, false
	}
	m = 1 << p
	if len(blob) != coreHeaderSize+(m*int(w)+7)/8 {
		return 0, 0, false
	}
	return m, w, true
}

// sparseEncode turns a dense core sketch blob into header + uvarint
// nonzero-count + (uvarint index-gap, uvarint value) pairs. It reports
// ok=false when blob is not a dense core sketch or when the sparse form
// cannot win (too many populated registers).
func sparseEncode(blob []byte) ([]byte, bool) {
	m, w, ok := sparseGeometry(blob)
	if !ok {
		return nil, false
	}
	arr, err := bitpack.FromBytes(blob[coreHeaderSize:], m, w)
	if err != nil {
		return nil, false
	}
	nz := 0
	for i := 0; i < m; i++ {
		if arr.Get(i) != 0 {
			nz++
		}
	}
	// Each pair costs ≥2 bytes; bail when the dense form is clearly
	// cheaper so EncodeBlob skips the wasted assembly.
	if coreHeaderSize+1+2*nz >= len(blob) {
		return nil, false
	}
	buf := make([]byte, 0, coreHeaderSize+1+3*nz)
	buf = append(buf, blob[:coreHeaderSize]...)
	buf = binary.AppendUvarint(buf, uint64(nz))
	prev := -1
	for i := 0; i < m; i++ {
		v := arr.Get(i)
		if v == 0 {
			continue
		}
		buf = binary.AppendUvarint(buf, uint64(i-prev-1))
		buf = binary.AppendUvarint(buf, v)
		prev = i
	}
	return buf, true
}

// sparseDecode re-expands a sparse payload to the exact dense blob.
// Allocation is bounded by the geometry the (validated) header implies,
// which the caller has already capped via rawLen ≤ maxLen.
func sparseDecode(payload []byte, rawLen int) ([]byte, error) {
	if len(payload) < coreHeaderSize {
		return nil, fmt.Errorf("%w: sparse payload shorter than header", ErrCodec)
	}
	// Re-derive geometry from the embedded header; it must reproduce
	// exactly the claimed raw length or the container is inconsistent.
	hdr := payload[:coreHeaderSize]
	m, w, ok := sparseGeometryForLen(hdr, rawLen)
	if !ok {
		return nil, fmt.Errorf("%w: sparse header inconsistent with raw length %d", ErrCodec, rawLen)
	}
	rest := payload[coreHeaderSize:]
	nz64, n := binary.Uvarint(rest)
	if n <= 0 || nz64 > uint64(m) {
		return nil, fmt.Errorf("%w: bad register count", ErrCodec)
	}
	rest = rest[n:]
	arr := bitpack.New(m, w)
	mask := uint64(1)<<w - 1
	idx := -1
	for k := uint64(0); k < nz64; k++ {
		gap, n := binary.Uvarint(rest)
		if n <= 0 {
			return nil, fmt.Errorf("%w: truncated register stream", ErrCodec)
		}
		rest = rest[n:]
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return nil, fmt.Errorf("%w: truncated register value", ErrCodec)
		}
		rest = rest[n:]
		// Bound the gap before converting: a hostile 64-bit gap must not
		// wrap the index negative (bitpack.Set would panic).
		if gap >= uint64(m) {
			return nil, fmt.Errorf("%w: register index out of range", ErrCodec)
		}
		idx += 1 + int(gap)
		if idx >= m {
			return nil, fmt.Errorf("%w: register index out of range", ErrCodec)
		}
		if v == 0 || v&^mask != 0 {
			return nil, fmt.Errorf("%w: register value out of range", ErrCodec)
		}
		arr.Set(idx, v)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCodec, len(rest))
	}
	out := make([]byte, 0, rawLen)
	out = append(out, hdr...)
	return append(out, arr.Bytes()...), nil
}

// sparseGeometryForLen is sparseGeometry against a caller-supplied total
// blob length (the decoder knows the header and the claimed rawLen but
// does not yet hold the dense bytes).
func sparseGeometryForLen(hdr []byte, rawLen int) (int, uint, bool) {
	// Fabricate the length check by validating header fields directly.
	if hdr[0] != 'E' || hdr[1] != 'L' || hdr[2] != 1 || hdr[6] != 0 || hdr[7] != 0 {
		return 0, 0, false
	}
	t, d, p := int(hdr[3]), int(hdr[4]), int(hdr[5])
	w := uint(6 + t + d)
	if w > bitpack.MaxWidth || p < 1 || p > 26 {
		return 0, 0, false
	}
	m := 1 << p
	if rawLen != coreHeaderSize+(m*int(w)+7)/8 {
		return 0, 0, false
	}
	return m, w, true
}

// entropyEncode runs the range coder over src under an adaptive order-1
// model: each byte is coded as a bit tree whose contexts are selected by
// the previous byte. Deterministic and streaming; the model comes from a
// pool and is reset before use.
func entropyEncode(src []byte) []byte {
	m := entropyModels.Get().(*Model)
	m.Reset()
	e := NewEncoder()
	prev := 0
	for _, b := range src {
		node := 1
		for bit := 7; bit >= 0; bit-- {
			bv := int(b>>uint(bit)) & 1
			e.EncodeBit(m, prev<<8|node, bv)
			node = node<<1 | bv
		}
		prev = int(b)
	}
	entropyModels.Put(m)
	return e.Close()
}

// entropyDecode reverses entropyEncode, producing exactly n bytes. The
// range decoder reads zeros past the end of data, so truncated or hostile
// input yields garbage bytes — never a panic or an oversized allocation
// (n is capped by the caller).
func entropyDecode(data []byte, n int) []byte {
	m := entropyModels.Get().(*Model)
	m.Reset()
	d := NewDecoder(data)
	out := make([]byte, n)
	prev := 0
	for i := range out {
		node := 1
		for bit := 0; bit < 8; bit++ {
			node = node<<1 | d.DecodeBit(m, prev<<8|node)
		}
		b := byte(node)
		out[i] = b
		prev = int(b)
	}
	entropyModels.Put(m)
	return out
}
