package server

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// The record codec: one frame format carries (key, expiry deadline, value
// blob) records wherever they travel — in the cluster's XFER transfer
// stream and, length-prefixed one after another, in snapshot files. There
// is no per-record type tag: every value blob names its own format by its
// magic (decodeValue).
//
//	bytes 0-3  magic "ELX3"
//	uvarint    record count (at least 1)
//	per record:
//	  uvarint  key length (at least 1), then the key bytes
//	  uvarint  expiry deadline, unix milliseconds (0 = none)
//	  uvarint  blob length, then the value blob
const frameMagic = "ELX3"

// DefaultFrameKeys and DefaultFrameBytes are where a frame closes (see
// FrameFull). Snapshots and the cluster's transfer stream both use them.
const (
	DefaultFrameKeys  = 64
	DefaultFrameBytes = 1 << 20
)

// FrameFull reports whether a frame of keys records, whose keys and blobs
// take size bytes, must close before a record of next key and blob bytes
// joins it: at DefaultFrameKeys records, or before the record that would
// take it past DefaultFrameBytes. A single larger record travels alone.
func FrameFull(keys, size, next int) bool {
	return keys == DefaultFrameKeys || keys > 0 && size+next > DefaultFrameBytes
}

// KeyBlob is one record of a frame: a key, its serialized value and the
// key's absolute expiry deadline (0 = none), so a moved or restored key
// keeps its lifetime. It is also the unit AbsorbBatch merges.
type KeyBlob struct {
	Key      string
	Blob     []byte
	Deadline int64
}

// EncodeFrame serializes items as one frame.
func EncodeFrame(items []KeyBlob) []byte {
	size := len(frameMagic) + binary.MaxVarintLen64
	for _, it := range items {
		size += 3*binary.MaxVarintLen64 + len(it.Key) + len(it.Blob)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, frameMagic...)
	buf = binary.AppendUvarint(buf, uint64(len(items)))
	for _, it := range items {
		buf = appendRecord(buf, it.Key, it.Deadline, it.Blob)
	}
	return buf
}

// appendRecord appends one frame record to dst.
func appendRecord(dst []byte, key string, deadline int64, blob []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	dst = append(dst, key...)
	dst = binary.AppendUvarint(dst, uint64(deadline))
	dst = binary.AppendUvarint(dst, uint64(len(blob)))
	return append(dst, blob...)
}

// DecodeFrame parses one frame. Its input is untrusted, so every claimed
// length is capped by the bytes actually present BEFORE it sizes an
// allocation or a slice (the window.FromBinary rule): the record count
// must be satisfiable by the payload (each record needs at least three
// bytes), the prealloc is additionally clamped, and key and blob lengths
// are checked against the remaining buffer. Keys are copied; blobs alias
// buf.
func DecodeFrame(buf []byte) ([]KeyBlob, error) {
	if len(buf) < len(frameMagic) || string(buf[:len(frameMagic)]) != frameMagic {
		return nil, errors.New("server: frame: bad magic")
	}
	rest := buf[len(frameMagic):]
	next := func() (uint64, bool) {
		v, w := binary.Uvarint(rest)
		if w <= 0 {
			return 0, false
		}
		rest = rest[w:]
		return v, true
	}
	count, ok := next()
	if !ok {
		return nil, errors.New("server: frame: truncated record count")
	}
	if count == 0 || count > uint64(len(rest))/3 {
		return nil, fmt.Errorf("server: frame: implausible record count %d for %d payload bytes", count, len(rest))
	}
	items := make([]KeyBlob, 0, int(min(count, 4096)))
	for i := uint64(0); i < count; i++ {
		klen, ok := next()
		if !ok || klen == 0 || klen > uint64(len(rest)) {
			return nil, errors.New("server: frame: bad key length")
		}
		key := string(rest[:klen])
		rest = rest[klen:]
		dl, ok := next()
		if !ok || dl > uint64(MaxDeadlineMillis) {
			return nil, errors.New("server: frame: bad deadline")
		}
		blen, ok := next()
		if !ok || blen > uint64(len(rest)) {
			return nil, errors.New("server: frame: bad blob length")
		}
		items = append(items, KeyBlob{Key: key, Blob: rest[:blen:blen], Deadline: int64(dl)})
		rest = rest[blen:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("server: frame: %d trailing bytes", len(rest))
	}
	return items, nil
}
