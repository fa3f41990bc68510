package server

import (
	"fmt"
	"time"
	"unsafe"

	"exaloglog/internal/core"
	"exaloglog/window"
)

// SketchValue is the polymorphic value a store key holds. The store's
// machinery — sharded buckets, the per-entry lock and version counter,
// the cached estimate, snapshot and rebalance plumbing — is shared
// across implementations; only the value semantics differ:
//
//   - ellValue: a plain ExaLogLog sketch, the value PFADD / PFCOUNT /
//     PFMERGE operate on — sparse hash tokens that densify at the
//     paper's break-even (core.Hybrid).
//   - windowValue: a sliding-window slice-ring of sketches
//     (window.Counter), the value WADD / WCOUNT / WINFO operate on —
//     the paper's port-scan/DDoS motivation served as a data-store
//     command.
//
// Commands are typed: addressing a key with a verb of the other value
// type fails with ErrWrongType rather than silently corrupting state
// (the Redis WRONGTYPE convention). Adding a new workload means adding
// an implementation here and registering its verbs in the command
// registry — no dispatch or persistence changes.
type SketchValue interface {
	// Tag identifies the value type in snapshot v3 records.
	Tag() byte
	// Estimate is the value's headline distinct-count estimate (plain:
	// the sketch estimate; windowed: the full-span estimate at the
	// newest observed timestamp).
	Estimate() float64
	// MarshalBinary serializes the value; every format is
	// self-describing. A plain sketch is the raw core format once dense
	// and an "ELT3" token blob while sparse; window rings use the
	// "ELW1" slot-wise format.
	MarshalBinary() ([]byte, error)
	// Info renders the INFO reply body.
	Info() string
	// SizeBytes is the value's resident heap footprint — the store's
	// resident_bytes gauge and the eviction watermarks sum it per key.
	SizeBytes() int
	// empty reports whether the value carries no observed state yet (a
	// just-created value a replication blob of any type may overwrite).
	empty() bool
}

// Value type tags, as written in snapshot v3 records.
const (
	valueTagEll    = byte('E')
	valueTagWindow = byte('W')
)

// ellValue adapts *core.Hybrid — the entry's own ell field — to
// SketchValue; Estimate and MarshalBinary are the hybrid's own. A struct of
// one pointer, it sits in the interface without an allocation of its own.
type ellValue struct{ *core.Hybrid }

// hybridSize is the Hybrid struct, which MemoryFootprint counts and which
// lives inside the entry that entryOverhead counts.
const hybridSize = int(unsafe.Sizeof(core.Hybrid{}))

func (v ellValue) Tag() byte      { return valueTagEll }
func (v ellValue) SizeBytes() int { return v.MemoryFootprint() - hybridSize }
func (v ellValue) empty() bool    { return v.IsEmpty() }

func (v ellValue) Info() string {
	cfg := v.Config()
	mode := "dense"
	if v.IsSparse() {
		mode = fmt.Sprintf("sparse tokens=%d", v.Tokens())
	}
	return fmt.Sprintf("t=%d d=%d p=%d mode=%s bytes=%d estimate=%.1f",
		cfg.T, cfg.D, cfg.P, mode, v.Hybrid.SizeBytes(), v.Estimate())
}

// windowValue adapts *window.Counter to SketchValue; like ellValue a
// struct of one pointer.
type windowValue struct {
	c *window.Counter
}

func (v windowValue) Tag() byte                      { return valueTagWindow }
func (v windowValue) Estimate() float64              { return v.c.Estimate(v.c.Latest(), v.c.Span()) }
func (v windowValue) MarshalBinary() ([]byte, error) { return v.c.MarshalBinary() }
func (v windowValue) SizeBytes() int                 { return v.c.MemoryFootprint() }
func (v windowValue) empty() bool                    { return v.c.Latest().IsZero() && v.c.Dropped() == 0 }

func (v windowValue) Info() string {
	return "type=window " + v.c.Describe()
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
// RESTORE, ABSORB and snapshot blobs polymorphic without a wire change —
// every value format is self-describing.
func decodeValue(data []byte) (pendingValue, error) {
	if window.IsSerialized(data) {
		return decodeValueTagged(valueTagWindow, data)
	}
	return decodeValueTagged(valueTagEll, data)
}

// decodeValueTagged is decodeValue for snapshot records, where the
// expected type travels beside the blob; a tag/blob mismatch is
// corruption and must fail loudly.
func decodeValueTagged(tag byte, data []byte) (d pendingValue, err error) {
	switch tag {
	case valueTagEll:
		err = d.ell.UnmarshalBinary(data)
	case valueTagWindow:
		d.win, err = window.FromBinary(data)
	default:
		err = fmt.Errorf("unknown value type tag %q", tag)
	}
	return d, err
}

// setLocked makes d e's value, in place of whatever e held; the caller
// holds e.mu or has not shared e yet. A plain sketch is copied into e.ell,
// so a reader that goes through ellLocked must hold e.mu while it uses the
// sketch: the struct it points at is overwritten here.
func (e *entry) setLocked(d *pendingValue) {
	if d.win != nil {
		e.val, e.ell = windowValue{d.win}, core.Hybrid{}
		return
	}
	e.ell, e.val = d.ell, ellValue{&e.ell}
}

// ellLocked returns the entry's plain sketch, e.ell; the caller holds e.mu
// for as long as it uses it.
func (e *entry) ellLocked() (*core.Hybrid, error) {
	if _, ok := e.val.(ellValue); !ok {
		return nil, ErrWrongType
	}
	return &e.ell, nil
}

// windowLocked returns the entry's window counter; the caller holds e.mu.
func (e *entry) windowLocked() (*window.Counter, error) {
	v, ok := e.val.(windowValue)
	if !ok {
		return nil, ErrWrongType
	}
	return v.c, nil
}

// Window-key creation defaults: 1-second slices, 60 of them — a
// one-minute maximum window at one-second edge granularity.
const (
	defaultWindowSlice  = time.Second
	defaultWindowSlices = 60
)
