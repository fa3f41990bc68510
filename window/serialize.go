package window

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"exaloglog/internal/core"
)

// Serialization: a Counter marshals slot-wise — a fixed magic, the
// sketch configuration and ring geometry, then one record per live
// slice (slice index + the slice sketch's own binary form: its hash
// tokens below break-even, the register array above). Empty slots are
// skipped, so a window costs on the wire what its slices hold. The
// format is what lets a sketch server DUMP windowed keys, replicate
// them with idempotent merges, and scatter-gather window queries
// slot-wise (merging rings, not collapsed union sketches, so the
// receiver can still answer any sub-window).
//
// Format:
//
//	bytes 0-3  magic "ELW1"
//	bytes 4-6  sketch configuration: t, d, p
//	uvarint    slice duration in nanoseconds
//	uvarint    number of slices in the ring
//	uvarint    dropped counter
//	uvarint    latest timestamp (unix nanoseconds, 0 = none)
//	uvarint    number of live slice records
//	per record:
//	  uvarint  slice index
//	  uvarint  sketch blob length, then the slice's blob: an "ELT3"
//	           token blob or a dense core sketch (core.Hybrid), of the
//	           ring's configuration
//
// The magic deliberately shares its first two bytes with the core
// sketch format ("EL" + version byte 1) while remaining unambiguous:
// byte 2 is 'W' here and 0x01 there, so a reader holding an unknown
// blob can cheaply tell a plain sketch from a window ring.
const (
	// Magic is the 4-byte prefix of every serialized Counter.
	Magic = "ELW1"

	// decode caps: a corrupt or hostile blob must be rejected before it
	// can drive an absurd allocation (mirrors the cluster wire codecs).
	// A slice is allocated from its blob, never from the header's
	// geometry: an empty ring of maxWireSlices slots is a few MB whatever
	// p the header claims.
	maxWireSlices    = 1 << 16
	maxWireSliceBlob = 1 << 26
)

// IsSerialized reports whether data looks like a serialized Counter
// (it carries the window magic). It does not validate the remainder.
func IsSerialized(data []byte) bool {
	return len(data) >= len(Magic) && string(data[:len(Magic)]) == Magic
}

// MarshalBinary serializes the counter slot-wise.
func (c *Counter) MarshalBinary() ([]byte, error) {
	return c.AppendBinary(make([]byte, 0, 64)), nil
}

// AppendBinary appends MarshalBinary's bytes to buf. Each live slot's
// sketch is appended in place and its length prefix slid in before it,
// so nothing is allocated beyond buf's growth.
func (c *Counter) AppendBinary(buf []byte) []byte {
	buf = append(buf, Magic...)
	buf = append(buf, byte(c.cfg.T), byte(c.cfg.D), byte(c.cfg.P))
	buf = binary.AppendUvarint(buf, uint64(c.slice))
	buf = binary.AppendUvarint(buf, uint64(len(c.slots)))
	buf = binary.AppendUvarint(buf, c.dropped)
	buf = binary.AppendUvarint(buf, uint64(c.latest))
	live := 0
	for i := range c.slots {
		if c.slots[i].index >= 0 {
			live++
		}
	}
	buf = binary.AppendUvarint(buf, uint64(live))
	for i := range c.slots {
		s := &c.slots[i]
		if s.index < 0 {
			continue
		}
		buf = binary.AppendUvarint(buf, uint64(s.index))
		start := len(buf)
		buf, _ = s.sketch.AppendBinary(buf) // appending a sketch's bytes cannot fail
		n := len(buf) - start
		var prefix [binary.MaxVarintLen64]byte
		k := binary.PutUvarint(prefix[:], uint64(n))
		buf = append(buf, prefix[:k]...)
		copy(buf[start+k:], buf[start:start+n])
		copy(buf[start:], prefix[:k])
	}
	return buf
}

// FromBinary reconstructs a Counter from MarshalBinary's output. It is
// deliberately strict: corrupt or adversarial input yields an error,
// never a panic, an over-allocation, or a degenerate ring (see
// FuzzWindowDecode).
func FromBinary(data []byte) (*Counter, error) {
	if !IsSerialized(data) {
		return nil, fmt.Errorf("window: bad magic in %d-byte blob", len(data))
	}
	if len(data) < len(Magic)+3 {
		return nil, fmt.Errorf("window: truncated configuration header")
	}
	cfg := core.Config{
		T: int(data[len(Magic)]),
		D: int(data[len(Magic)+1]),
		P: int(data[len(Magic)+2]),
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("window: blob configuration: %w", err)
	}
	rest := data[len(Magic)+3:]
	next := func(what string) (uint64, error) {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, fmt.Errorf("window: truncated %s", what)
		}
		rest = rest[n:]
		return v, nil
	}
	sliceNS, err := next("slice duration")
	if err != nil {
		return nil, err
	}
	numSlices, err := next("slice count")
	if err != nil {
		return nil, err
	}
	if numSlices < 2 || numSlices > maxWireSlices {
		return nil, fmt.Errorf("window: blob claims %d slices (want 2..%d)", numSlices, maxWireSlices)
	}
	dropped, err := next("dropped counter")
	if err != nil {
		return nil, err
	}
	latest, err := next("latest timestamp")
	if err != nil {
		return nil, err
	}
	live, err := next("record count")
	if err != nil {
		return nil, err
	}
	if live > numSlices {
		return nil, fmt.Errorf("window: blob claims %d live records for a %d-slice ring", live, numSlices)
	}
	slice := time.Duration(sliceNS)
	if slice <= 0 {
		return nil, fmt.Errorf("window: blob slice duration %d out of range", sliceNS)
	}
	// Slice indexes and the latest timestamp must stay inside the range
	// live inserts can produce (AddHash's maxUnixSec guard): a decoded
	// idx near 2^62 would set maxIndex so high that every future real
	// add counts as dropped — one poisoned blob bricking the key.
	maxIdx := uint64(math.MaxInt64) / sliceNS
	if latest > uint64(math.MaxInt64) {
		return nil, fmt.Errorf("window: blob latest timestamp %d out of range", latest)
	}
	c, err := New(cfg, slice, int(numSlices))
	if err != nil {
		return nil, err
	}
	for r := uint64(0); r < live; r++ {
		idxU, err := next("slice index")
		if err != nil {
			return nil, err
		}
		if idxU > maxIdx {
			return nil, fmt.Errorf("window: slice index %d out of range for slice %v", idxU, slice)
		}
		idx := int64(idxU)
		blobLen, err := next("sketch blob length")
		if err != nil {
			return nil, err
		}
		if blobLen > maxWireSliceBlob || blobLen > uint64(len(rest)) {
			return nil, fmt.Errorf("window: slice blob length %d exceeds input", blobLen)
		}
		s := &c.slots[int(idx%int64(numSlices))]
		if s.index >= 0 {
			return nil, fmt.Errorf("window: slice indexes %d and %d collide in a %d-slice ring", s.index, idx, numSlices)
		}
		if err := s.sketch.UnmarshalBinary(rest[:blobLen]); err != nil {
			return nil, fmt.Errorf("window: slice %d sketch: %w", idx, err)
		}
		rest = rest[blobLen:]
		if s.sketch.Config() != cfg {
			return nil, fmt.Errorf("window: slice %d configuration %+v differs from ring %+v", idx, s.sketch.Config(), cfg)
		}
		s.index = idx
		if idx > c.maxIndex {
			c.maxIndex = idx
		}
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("window: %d trailing bytes after the last record", len(rest))
	}
	c.dropped = dropped
	c.latest = int64(latest)
	return c, nil
}

// Describe renders the counter's observable state as space-free
// key=value fields — the body of the sketch server's WINFO reply:
//
//	slice=1s slices=60 span=1m0s latest=<unix ms, 0 if none> dropped=<n> bytes=<n> estimate=<full-span estimate>
func (c *Counter) Describe() string {
	latestMS := int64(0)
	if c.latest != 0 {
		latestMS = c.latest / int64(time.Millisecond)
	}
	return fmt.Sprintf("slice=%s slices=%d span=%s latest=%d dropped=%d bytes=%d estimate=%.1f",
		c.slice, len(c.slots), c.Span(), latestMS, c.dropped,
		c.MemoryFootprint(), c.Estimate(c.Latest(), c.Span()))
}
