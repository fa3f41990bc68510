package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// Snapshot persistence: the whole store serializes to a header and a
// stream of the same frames the cluster's transfer stream carries (see
// frame.go), so a sketch service can restart without losing its counters.
// A record's blob is the value as it serializes itself — a sparse sketch's
// hash tokens, a dense one's register array (Section 5.3: serialization is
// a header plus the register array, so snapshots are cheap), a window
// ring slot-wise — and names its own type by its magic.
//
// Format (version 6, the only one read or written):
//
//	bytes 0-3  magic "ELSS"
//	byte  4    version (6)
//	uvarint    metadata length, then the opaque metadata blob
//	per frame:
//	  uvarint  frame length (at least 1), then one frame
//	uvarint    0, the terminator
//
// There is no up-front record count: the writer streams the store shard by
// shard, frame by frame, and a reader knows the file is whole when it meets
// the terminator. The metadata blob (SetMeta/Meta) is opaque to the server:
// the cluster package stores its membership map there so a restarted node
// remembers its cluster.
const (
	snapshotMagic     = "ELSS"
	snapshotVersion   = 6
	snapshotMetaLimit = 1 << 20
	// snapshotFrameLimit caps a frame's claimed length. A frame closes at
	// DefaultFrameBytes, but a value larger than that travels alone, so the
	// cap is the size of the largest value a store can sensibly hold.
	snapshotFrameLimit = 1 << 30
)

// WriteSnapshot serializes all values to w. It walks the store shard by
// shard, keys sorted within each shard, so snapshots of equal stores are
// byte-identical, and it holds one frame at a time: each blob is
// marshaled under its entry lock alone, and no lock is held across a
// Write. Each value blob is internally consistent; keys mutated while the
// snapshot is being written may appear in either state.
func (s *Store) WriteSnapshot(w io.Writer) error {
	bw := bufio.NewWriter(w) // its errors are sticky: Flush reports the first
	meta := s.Meta()
	head := binary.AppendUvarint(append([]byte(snapshotMagic), snapshotVersion), uint64(len(meta)))
	bw.Write(append(head, meta...))
	var body []byte   // the records of the frame being filled
	keys, raw := 0, 0 // its record count, and its key and blob bytes
	flush := func() error {
		count := binary.AppendUvarint(nil, uint64(keys))
		n := len(frameMagic) + len(count) + len(body)
		if n > snapshotFrameLimit {
			return fmt.Errorf("server: snapshot frame of %d bytes exceeds the %d-byte limit", n, snapshotFrameLimit)
		}
		bw.Write(append(append(binary.AppendUvarint(head[:0], uint64(n)), frameMagic...), count...))
		_, err := bw.Write(body)
		body, keys, raw = body[:0], 0, 0
		return err
	}
	for i := range s.shards {
		entries := s.shardEntries(i)
		slices.SortFunc(entries, func(a, b namedEntry) int { return strings.Compare(a.key, b.key) })
		for _, ne := range entries {
			t, ok := s.dumpEntry(ne.key, ne.e)
			if !ok {
				continue
			}
			sz := len(ne.key) + len(t.Blob)
			if FrameFull(keys, raw, sz) {
				if err := flush(); err != nil {
					return err
				}
			}
			body = appendRecord(body, ne.key, t.Deadline, t.Blob)
			keys, raw = keys+1, raw+sz
		}
	}
	if keys > 0 {
		if err := flush(); err != nil {
			return err
		}
	}
	bw.WriteByte(0)
	return bw.Flush()
}

// ReadSnapshot replaces the store's contents with the snapshot from r. It
// reads one frame at a time but builds the whole replacement before it
// swaps it in, so on error the store is left unchanged. A file whose
// frames repeat a key, or that ends before its terminator, is refused.
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
	var buf bytes.Buffer // the chunk just read: the metadata, then each frame
	if err := readChunk(br, &buf, snapshotMetaLimit); err != nil {
		return fmt.Errorf("server: snapshot metadata: %w", err)
	}
	var meta []byte
	if buf.Len() > 0 {
		meta = bytes.Clone(buf.Bytes())
	}
	nowMs := s.NowMillis()
	fresh := make([]map[string]*entry, numShards)
	for i := range fresh {
		fresh[i] = make(map[string]*entry)
	}
	expired := make(map[string]bool) // keys skipped as expired, for the repeat check
	for f := 0; ; f++ {
		if err := readChunk(br, &buf, snapshotFrameLimit); err != nil {
			return fmt.Errorf("server: snapshot frame %d: %w", f, err)
		}
		if buf.Len() == 0 {
			break // the terminator
		}
		items, err := DecodeFrame(buf.Bytes())
		if err != nil {
			return fmt.Errorf("server: snapshot frame %d: %w", f, err)
		}
		for _, it := range items {
			m := fresh[shardIndex(it.Key)]
			if _, dup := m[it.Key]; dup || expired[it.Key] {
				return fmt.Errorf("server: snapshot frame %d: key %q repeats", f, it.Key)
			}
			val, err := decodeValue(it.Blob)
			if err != nil {
				return fmt.Errorf("server: snapshot frame %d (%q): %w", f, it.Key, err)
			}
			if it.Deadline != 0 && it.Deadline <= nowMs {
				expired[it.Key] = true // expired while the snapshot sat on disk: stay dead
				continue
			}
			e := &entry{}
			e.setLocked(&val)
			e.deadline.Store(it.Deadline)
			m[it.Key] = e
		}
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return errors.Join(errors.New("server: snapshot has bytes after its terminator"), err)
	}
	s.replaceAll(fresh, meta)
	return nil
}

// readChunk reads a uvarint length of at most limit into buf, then that
// many bytes. buf grows with the bytes that arrive, never by the length a
// stream claims, so a length that lies costs what the stream really holds.
// Every length in a snapshot, the terminator's included, is required: a
// stream that ends before one is an unexpected EOF.
func readChunk(br *bufio.Reader, buf *bytes.Buffer, limit uint64) error {
	n, err := binary.ReadUvarint(br)
	switch {
	case err == io.EOF:
		return io.ErrUnexpectedEOF
	case err != nil:
		return err
	case n > limit:
		return fmt.Errorf("length %d exceeds limit %d", n, limit)
	}
	buf.Reset()
	if _, err := buf.ReadFrom(io.LimitReader(br, int64(n))); err != nil || uint64(buf.Len()) == n {
		return err
	}
	return io.ErrUnexpectedEOF
}

// replaceAll swaps the store's entire contents for the loaded per-shard
// maps. Entries being replaced are marked dead so mutators that raced the
// swap retry against the new maps instead of writing into orphans; the
// resident-bytes gauge is rebuilt from the loaded values.
func (s *Store) replaceAll(fresh []map[string]*entry, meta []byte) {
	for i := range s.shards {
		for _, e := range fresh[i] {
			s.resizeLocked(e)
		}
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

// SaveFile writes a snapshot durably and atomically: to a temp file in the
// same directory, synced to disk, then renamed over path, and the
// directory synced so the rename itself survives a crash.
func (s *Store) SaveFile(path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".elss-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := errors.Join(s.WriteSnapshot(tmp), tmp.Sync(), tmp.Close()); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	return errors.Join(d.Sync(), d.Close())
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
