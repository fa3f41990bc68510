package cluster

import (
	"bytes"
	"encoding/base64"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"exaloglog/server"
)

// The transfer pipeline: how a digest round ships the keys a peer lacks,
// and how a stray drain hands keys to their owners. Records — a key, its
// expiry deadline and its value blob as the store dumps it — gather into
// frames (server.EncodeFrame, "ELX3", the format snapshot files are made
// of), and the frames go to the peer as a windowed pipeline of
//
//	CLUSTER XFER FRAME h=<height> <base64 frame>  → +OK | -STALE h=.. d=.. | -ERR ...
//
// requests on a connection the pool lends: up to xferWindow frames in one
// write, their replies read back in one batch. The receiver applies the
// height fence — a receiver whose map is higher (Map.Height) than the
// sender's refuses with -STALE; a sender as high or higher is fine, its map
// follows — decodes the frame and merges every record into its store.
//
// There are no sessions, no resume and no retries. The merge is
// commutative and idempotent, so a frame that landed changes the
// receiver's digests and the next digest round skips its keys, and a
// frame that did not is shipped again by that round. A stream that fails
// returns its error, and nothing it did not hand off is deleted.

// xferWindow is how many frames a stream sends in one round trip. Every
// frame round trip runs under the peer timeout (SetPeerTimeout), like any
// pooled peer command.
const xferWindow = 8

// transferState is the sender's counters, and the window its streams use
// (xferWindow; a test may narrow it before the node moves data). It lives
// as one field on Node so node.go stays focused on membership.
type transferState struct {
	window int

	streams   atomic.Uint64 // streams that sent a frame
	frames    atomic.Uint64 // frames sent
	bytes     atomic.Uint64 // value blob bytes in the frames a peer merged
	wireBytes atomic.Uint64 // frame bytes sent, before base64
}

// TransferStats is a snapshot of the transfer counters — the xfer_*
// fields of CLUSTER STATS and the ell_cluster_xfer_*_total Prometheus
// rows.
type TransferStats struct {
	StreamsOpened    uint64 // streams that sent at least one frame
	FramesSent       uint64 // frames sent, those a peer refused included
	FrameRetries     uint64 // always 0: a failed stream is not retried; the next digest round ships what still differs
	BytesMoved       uint64 // value blob bytes in the frames a peer merged
	FallbackKeys     uint64 // always 0: every key travels in a frame
	BytesPrecompress uint64 // equal to BytesWire: frames carry blobs as they are
	BytesWire        uint64 // frame bytes sent, before base64
}

// TransferStats returns this node's cumulative transfer counters.
func (n *Node) TransferStats() TransferStats {
	wire := n.xfer.wireBytes.Load()
	return TransferStats{
		StreamsOpened:    n.xfer.streams.Load(),
		FramesSent:       n.xfer.frames.Load(),
		BytesMoved:       n.xfer.bytes.Load(),
		BytesPrecompress: wire,
		BytesWire:        wire,
	}
}

// --- sender ------------------------------------------------------------

// stream ships records to one peer. add gathers them into frames, and a
// window of frames goes out as one pipelined round trip, so a stream holds
// the frame it fills and the window's lines, never more. After the first
// failure a stream drops what it is given, and close reports the failure.
type stream struct {
	n      *Node
	addr   string
	height string         // the frames' "h=<height>" token
	count  *atomic.Uint64 // the keys the peer merged are counted here, if not nil
	acked  func(keys []string)

	recs   []server.KeyBlob // the frame being filled
	raw    int              // its key and blob bytes
	lines  []byte           // the window: one XFER FRAME line per frame
	window []windowFrame
	opened bool
	err    error
}

// windowFrame is the bookkeeping of one frame in a window.
type windowFrame struct {
	keys       []string
	wire, blob int
}

// newStream starts a stream to addr under a map of the given height. count, when not
// nil, tallies the keys the peer merged; acked, when not nil, is told them
// frame by frame.
func (n *Node) newStream(addr string, height uint64, count *atomic.Uint64, acked func(keys []string)) *stream {
	return &stream{
		n:      n,
		addr:   addr,
		height: "h=" + strconv.FormatUint(height, 10),
		count:  count,
		acked:  acked,
	}
}

// add queues one record. Its blob must stay unchanged until the stream is
// closed.
func (s *stream) add(kb server.KeyBlob) {
	if s.err != nil {
		return
	}
	sz := len(kb.Key) + len(kb.Blob)
	if server.FrameFull(len(s.recs), s.raw, sz) {
		s.closeFrame()
	}
	s.recs = append(s.recs, kb)
	s.raw += sz
}

// closeFrame encodes the frame being filled onto the window, and sends the
// window once it is full.
func (s *stream) closeFrame() {
	if len(s.recs) == 0 || s.err != nil {
		return
	}
	raw := server.EncodeFrame(s.recs)
	f := windowFrame{keys: make([]string, len(s.recs)), wire: len(raw)}
	for i, r := range s.recs {
		f.keys[i] = r.Key
		f.blob += len(r.Blob)
	}
	s.lines = append(appendFrameLine(s.lines, s.height, raw), '\n')
	s.window = append(s.window, f)
	clear(s.recs)
	s.recs, s.raw = s.recs[:0], 0
	if len(s.window) == s.n.xfer.window {
		s.flush()
	}
}

// flush sends the window's frames in one write and reads their replies.
// The frames before the first refused one count as merged.
func (s *stream) flush() {
	if len(s.window) == 0 || s.err != nil {
		return
	}
	var results []server.Result
	err := s.n.peers.exchange(s.addr, func(c *server.Client) (err error) {
		results, err = c.DoLines(s.lines, len(s.window))
		return err
	})
	if err == nil {
		if !s.opened {
			s.opened = true
			s.n.xfer.streams.Add(1)
		}
		s.n.xfer.frames.Add(uint64(len(s.window)))
		for _, f := range s.window {
			s.n.xfer.wireBytes.Add(uint64(f.wire))
		}
	}
	for i, f := range s.window {
		if err == nil {
			err = results[i].Err
		}
		if err != nil {
			break
		}
		s.n.xfer.bytes.Add(uint64(f.blob))
		if s.count != nil {
			s.count.Add(uint64(len(f.keys)))
		}
		if s.acked != nil {
			s.acked(f.keys)
		}
	}
	s.err = asStale(err)
	s.lines, s.window = s.lines[:0], s.window[:0]
}

// close sends what is still queued and returns the stream's error, if any.
func (s *stream) close() error {
	s.closeFrame()
	s.flush()
	return s.err
}

// appendFrameLine appends one "CLUSTER XFER FRAME h=<height> <b64>" line
// (no line break) to dst, growing dst only when the frame outgrows every
// previous tenant of the buffer.
func appendFrameLine(dst []byte, heightTok string, raw []byte) []byte {
	dst = append(dst, "CLUSTER XFER FRAME "...)
	dst = append(dst, heightTok...)
	dst = append(dst, ' ')
	return base64.StdEncoding.AppendEncode(dst, raw)
}

// --- receiver ----------------------------------------------------------

// frameScratch pools the receiver's decoded frame bytes, so a steady
// frame stream allocates no receive buffer per frame.
var frameScratch = sync.Pool{New: func() any { return new([]byte) }}

const xferUsage = "-ERR CLUSTER XFER needs FRAME, h=<height> and a frame"

// handleXfer serves CLUSTER XFER FRAME h=<height> <base64 frame> on the
// bytes it arrived in: the height fence, then every record merged into the
// store.
func (n *Node) handleXfer(reply []byte, args [][]byte) []byte {
	if !bytes.EqualFold(args[0], []byte("FRAME")) || !bytes.HasPrefix(args[1], []byte("h=")) {
		return append(reply, xferUsage...)
	}
	height, err := strconv.ParseUint(string(args[1][2:]), 10, 64)
	if err != nil {
		return fmt.Appendf(reply, "-ERR bad XFER height %q", args[1])
	}
	// A sender streaming under a lower map lacks a change we hold and may
	// be pushing keys to an owner that no longer owns them: refuse, and it
	// joins our map. A sender as high or higher is fine — its map reaches
	// us by SETMAP, gossip or a digest round, and keys that land early are
	// strays the next drain moves.
	if cur := n.currentMap(); cur.Height() > height {
		return append(append(reply, "-STALE "...), cur.Stamp()...)
	}
	// The decoded records may alias the pooled buffer; AbsorbBatch's
	// merges copy everything they keep, so it is free again on return.
	rawp := frameScratch.Get().(*[]byte)
	defer frameScratch.Put(rawp)
	need := base64.StdEncoding.DecodedLen(len(args[2]))
	*rawp = slices.Grow((*rawp)[:0], need)
	k, err := base64.StdEncoding.Decode((*rawp)[:need], args[2])
	if err != nil {
		return append(reply, "-ERR xfer: bad base64: "+err.Error()...)
	}
	items, err := server.DecodeFrame((*rawp)[:k])
	if err != nil {
		return append(reply, "-ERR "+err.Error()...)
	}
	if err := n.store.AbsorbBatch(items); err != nil {
		// A frame merged in part is safe: merges are idempotent, and the
		// next digest round ships what is still missing.
		return append(reply, "-ERR xfer: "+err.Error()...)
	}
	return append(reply, "+OK"...)
}
