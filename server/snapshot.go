package server

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sort"
)

// Snapshot persistence: the whole store serializes to a compact binary
// stream — a magic header followed by (key, value-blob) records — so a
// sketch service can restart without losing its counters. A plain
// sketch's blob is its hash tokens while sparse and the core
// MarshalBinary form once dense (Section 5.3: serialization is a header
// plus the register array, so snapshots are cheap); windowed keys
// serialize slot-wise (see the window package).
//
// Format (version 5, the only one read or written):
//
//	bytes 0-3  magic "ELSS"
//	byte  4    version (5)
//	uvarint    metadata length, then the opaque metadata blob
//	uvarint    number of records
//	per record:
//	  uvarint  key length, then the key bytes
//	  byte     value type tag ('E' plain sketch, 'W' window ring)
//	  uvarint  expiry deadline, unix milliseconds (0 = none)
//	  uvarint  blob length, then the value blob
//
// A value blob is written as the value serializes itself — a sparse
// sketch is small because it is a token set; nothing else compresses.
// The metadata blob (SetMeta/Meta) is opaque to the server:
// the cluster package stores its membership map there so a restarted
// node remembers its cluster.
const (
	snapshotMagic      = "ELSS"
	snapshotVersion    = 5
	snapshotMetaLimit  = 1 << 20
	snapshotKeyLimit   = 1 << 16
	snapshotBlobLimit  = 1 << 30
	snapshotMaxRecords = 1 << 24
)

// WriteSnapshot serializes all values to w. Keys are written in sorted
// order so snapshots of equal stores are byte-identical. Each value
// blob is internally consistent; keys mutated while the snapshot is
// being gathered may appear in either state.
func (s *Store) WriteSnapshot(w io.Writer) error {
	blobs := s.DumpAllTagged()
	meta := s.Meta()
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(snapshotMagic); err != nil {
		return err
	}
	if err := bw.WriteByte(snapshotVersion); err != nil {
		return err
	}
	keys := make([]string, 0, len(blobs))
	for k := range blobs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var buf [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := writeUvarint(uint64(len(meta))); err != nil {
		return err
	}
	if _, err := bw.Write(meta); err != nil {
		return err
	}
	if err := writeUvarint(uint64(len(keys))); err != nil {
		return err
	}
	for _, k := range keys {
		tagged := blobs[k]
		if err := writeUvarint(uint64(len(k))); err != nil {
			return err
		}
		if _, err := bw.WriteString(k); err != nil {
			return err
		}
		if err := bw.WriteByte(tagged.Type); err != nil {
			return err
		}
		if err := writeUvarint(uint64(tagged.Deadline)); err != nil {
			return err
		}
		if err := writeUvarint(uint64(len(tagged.Blob))); err != nil {
			return err
		}
		if _, err := bw.Write(tagged.Blob); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadSnapshot replaces the store's contents with the snapshot from r.
// On error the store is left unchanged.
func (s *Store) ReadSnapshot(r io.Reader) error {
	br := bufio.NewReader(r)
	header := make([]byte, len(snapshotMagic)+1)
	if _, err := io.ReadFull(br, header); err != nil {
		return fmt.Errorf("server: snapshot header: %w", err)
	}
	if string(header[:len(snapshotMagic)]) != snapshotMagic {
		return fmt.Errorf("server: bad snapshot magic %q", header[:len(snapshotMagic)])
	}
	if version := header[len(snapshotMagic)]; version != snapshotVersion {
		return fmt.Errorf("server: unsupported snapshot version %d", version)
	}
	meta, err := readBlob(br, snapshotMetaLimit)
	if err != nil {
		return fmt.Errorf("server: snapshot metadata: %w", err)
	}
	if len(meta) == 0 {
		meta = nil
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return fmt.Errorf("server: snapshot record count: %w", err)
	}
	if count > snapshotMaxRecords {
		return fmt.Errorf("server: snapshot claims %d records (limit %d)", count, snapshotMaxRecords)
	}
	nowMs := s.NowMillis()
	loaded := make(map[string]*entry, count)
	for i := uint64(0); i < count; i++ {
		key, err := readBlob(br, snapshotKeyLimit)
		if err != nil {
			return fmt.Errorf("server: snapshot record %d key: %w", i, err)
		}
		tag, err := br.ReadByte()
		if err != nil {
			return fmt.Errorf("server: snapshot record %d type tag: %w", i, err)
		}
		dl, err := binary.ReadUvarint(br)
		if err != nil {
			return fmt.Errorf("server: snapshot record %d deadline: %w", i, err)
		}
		if dl > uint64(MaxDeadlineMillis) {
			return fmt.Errorf("server: snapshot record %d deadline %d out of range", i, dl)
		}
		deadline := int64(dl)
		blob, err := readBlob(br, snapshotBlobLimit)
		if err != nil {
			return fmt.Errorf("server: snapshot record %d blob: %w", i, err)
		}
		val, err := decodeValueTagged(tag, blob)
		if err != nil {
			return fmt.Errorf("server: snapshot record %d (%q): %w", i, key, err)
		}
		if deadline != 0 && deadline <= nowMs {
			continue // expired while the snapshot sat on disk: stay dead
		}
		e := &entry{}
		e.setLocked(&val)
		e.deadline.Store(deadline)
		loaded[string(key)] = e
	}
	s.replaceAll(loaded, meta)
	return nil
}

// replaceAll swaps the store's entire contents for the loaded entries.
// Entries being replaced are marked dead so mutators that raced the
// swap retry against the new maps instead of writing into orphans; the
// resident-bytes gauge is rebuilt from the loaded values.
func (s *Store) replaceAll(loaded map[string]*entry, meta []byte) {
	fresh := make([]map[string]*entry, numShards)
	for i := range fresh {
		fresh[i] = make(map[string]*entry)
	}
	for k, e := range loaded {
		s.resizeLocked(e)
		fresh[shardIndex(k)][k] = e
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, e := range sh.m {
			e.mu.Lock()
			s.killLocked(e)
			e.mu.Unlock()
		}
		sh.m = fresh[i]
		sh.mu.Unlock()
	}
	s.SetMeta(meta)
}

// readBlob reads a uvarint-length-prefixed byte string with a size cap.
func readBlob(br *bufio.Reader, limit uint64) ([]byte, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if n > limit {
		return nil, fmt.Errorf("length %d exceeds limit %d", n, limit)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(br, b); err != nil {
		return nil, err
	}
	return b, nil
}

// SaveFile writes a snapshot atomically: to a temp file in the same
// directory, then rename.
func (s *Store) SaveFile(path string) error {
	tmp, err := os.CreateTemp(dirOf(path), ".elss-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := s.WriteSnapshot(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// LoadFile replaces the store's contents with the snapshot at path.
func (s *Store) LoadFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return s.ReadSnapshot(f)
}

func dirOf(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[:i]
		}
	}
	return "."
}
