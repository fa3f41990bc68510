package server

import (
	"fmt"
	"time"
	"unsafe"

	"exaloglog/internal/core"
	"exaloglog/window"
)

// A store key holds one of two value types, and the entry's methods below
// branch on which:
//
//   - a plain ExaLogLog sketch, the value PFADD / PFCOUNT / PFMERGE operate
//     on — sparse hash tokens that densify at the paper's break-even
//     (core.Hybrid), held in the entry itself (entry.ell);
//   - a sliding-window slice-ring of sketches (window.Counter, entry.win),
//     the value WADD / WCOUNT / WINFO operate on — the paper's
//     port-scan/DDoS motivation served as a data-store command.
//
// Commands are typed: addressing a key with a verb of the other value type
// fails with ErrWrongType rather than silently corrupting state (the Redis
// WRONGTYPE convention). Every serialized format is self-describing: a
// plain sketch is the raw core format once dense and an "ELT3" token blob
// while sparse; window rings use the "ELW1" slot-wise format.

// Value type tags: which kind of value a key is created with.
const (
	valueTagEll    = byte('E')
	valueTagWindow = byte('W')
)

// hybridSize is the Hybrid struct, which MemoryFootprint counts and which
// lives inside the entry that entryOverhead counts.
const hybridSize = int(unsafe.Sizeof(core.Hybrid{}))

// MarshalBinary serializes the value. The caller holds e.mu, as for every
// method below. The value's heap footprint sizes the buffer: a plain
// sketch's bytes are its payload and a header of at most 16 bytes.
func (e *entry) MarshalBinary() ([]byte, error) {
	return e.AppendBinary(make([]byte, 0, e.SizeBytes()+16))
}

// AppendBinary appends MarshalBinary's bytes to b.
func (e *entry) AppendBinary(b []byte) ([]byte, error) {
	if e.win != nil {
		return e.win.AppendBinary(b), nil
	}
	return e.ell.AppendBinary(b)
}

// Info renders the INFO reply body.
func (e *entry) Info() string {
	if e.win != nil {
		return "type=window " + e.win.Describe()
	}
	cfg, mode := e.ell.Config(), "dense"
	if e.ell.IsSparse() {
		mode = fmt.Sprintf("sparse tokens=%d", e.ell.Tokens())
	}
	return fmt.Sprintf("t=%d d=%d p=%d mode=%s bytes=%d estimate=%.1f",
		cfg.T, cfg.D, cfg.P, mode, e.ell.SizeBytes(), e.ell.Estimate())
}

// SizeBytes is the value's resident heap footprint beside the entry — the
// store's resident_bytes gauge and the eviction watermarks sum it per key.
// A plain sketch's Hybrid struct is part of the entry.
func (e *entry) SizeBytes() int {
	if e.win != nil {
		return e.win.MemoryFootprint()
	}
	return e.ell.MemoryFootprint() - hybridSize
}

// empty reports whether the value carries no observed state yet (a
// just-created value a replication blob of either type may overwrite).
func (e *entry) empty() bool {
	if e.win != nil {
		return e.win.Latest().IsZero() && e.win.Dropped() == 0
	}
	return e.ell.IsEmpty()
}

// pendingValue is a value on its way into an entry — made empty or
// decoded from a blob: a plain sketch, held by value so that setLocked
// copies it into the entry's own Hybrid, or a window ring.
type pendingValue struct {
	ell core.Hybrid
	win *window.Counter // nil for a plain sketch
}

func (d *pendingValue) tag() byte {
	if d.win != nil {
		return valueTagWindow
	}
	return valueTagEll
}

// decodeValue decodes a serialized value, dispatching on the blob's own
// magic: "ELW1" is a window ring, anything else is handed to the core
// decoder (an "ELT3" token blob or a dense sketch). This is what keeps
// RESTORE, transfer records (PFMERGE's union among them) and snapshot
// records polymorphic without a type tag — every value format is
// self-describing. The result shares no memory with data.
func decodeValue(data []byte) (d pendingValue, err error) {
	if window.IsSerialized(data) {
		d.win, err = window.FromBinary(data)
	} else {
		err = d.ell.UnmarshalBinary(data)
	}
	return d, err
}

// setLocked makes d e's value, in place of whatever e held; the caller
// holds e.mu or has not shared e yet. A plain sketch is copied into e.ell,
// so a reader that goes through ellLocked must hold e.mu while it uses the
// sketch: the struct it points at is overwritten here.
func (e *entry) setLocked(d *pendingValue) {
	e.ell, e.win = d.ell, d.win
}

// ellLocked returns the entry's plain sketch, e.ell; the caller holds e.mu
// for as long as it uses it.
func (e *entry) ellLocked() (*core.Hybrid, error) {
	if e.win != nil {
		return nil, ErrWrongType
	}
	return &e.ell, nil
}

// windowLocked returns the entry's window counter; the caller holds e.mu.
func (e *entry) windowLocked() (*window.Counter, error) {
	if e.win == nil {
		return nil, ErrWrongType
	}
	return e.win, nil
}

// Window-key creation defaults: 1-second slices, 60 of them — a
// one-minute maximum window at one-second edge granularity.
const (
	defaultWindowSlice  = time.Second
	defaultWindowSlices = 60
)
