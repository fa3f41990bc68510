package core

import (
	"fmt"

	"exaloglog/internal/bitpack"
)

// Serialization format: a fixed 8-byte header followed by the packed
// register array. The header is
//
//	bytes 0-1  magic "EL"
//	byte  2    format version (1)
//	byte  3    t
//	byte  4    d
//	byte  5    p
//	bytes 6-7  reserved (zero)
//
// so the total size is 8 + ceil(m·(6+t+d)/8) bytes. The register bytes are
// exactly the dense bit-array; RegisterBytes exposes them alone for
// size-accounting experiments that mirror the paper's Table 2 (which counts
// registers only).
const (
	serializedHeaderSize = 8
	formatVersion        = 1
)

// SerializedSizeBytes returns the length of MarshalBinary's output.
func (s *Sketch) SerializedSizeBytes() int {
	return serializedHeaderSize + s.regs.SizeBytes()
}

// RegisterBytes returns a copy of the raw packed register array,
// ceil(m·(6+t+d)/8) bytes — the paper's serialization-size accounting.
func (s *Sketch) RegisterBytes() []byte {
	return append([]byte(nil), s.regs.Bytes()...)
}

// MarshalBinary serializes the sketch. Serialization is a plain copy of
// the register array plus an 8-byte header; no compression or
// consolidation is performed, which is why it is fast (Section 5.3).
// Martingale state is intentionally not serialized: it is stream-local.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	return s.AppendBinary(make([]byte, 0, s.SerializedSizeBytes()))
}

// AppendBinary appends MarshalBinary's bytes to b.
func (s *Sketch) AppendBinary(b []byte) ([]byte, error) {
	b = append(b, 'E', 'L', formatVersion, byte(s.cfg.T), byte(s.cfg.D), byte(s.cfg.P), 0, 0)
	return append(b, s.regs.Bytes()...), nil
}

// UnmarshalBinary deserializes a sketch produced by MarshalBinary,
// replacing the receiver's configuration and state.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	if len(data) < serializedHeaderSize {
		return fmt.Errorf("exaloglog: serialized data too short (%d bytes)", len(data))
	}
	if data[0] != 'E' || data[1] != 'L' {
		return fmt.Errorf("exaloglog: bad magic %q", string(data[:2])) // a copy: data is not retained
	}
	if data[2] != formatVersion {
		return fmt.Errorf("exaloglog: unsupported format version %d", data[2])
	}
	cfg := Config{T: int(data[3]), D: int(data[4]), P: int(data[5])}
	if err := cfg.Validate(); err != nil {
		return err
	}
	regs, err := bitpack.FromBytes(data[serializedHeaderSize:], cfg.NumRegisters(), cfg.RegisterWidth())
	if err != nil {
		return err
	}
	s.cfg = cfg
	s.regs = regs
	s.martingale = false
	s.resetMartingale()
	s.changedCount = 0
	return nil
}

// FromBinary constructs a sketch from serialized data.
func FromBinary(data []byte) (*Sketch, error) {
	s := &Sketch{}
	if err := s.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return s, nil
}
