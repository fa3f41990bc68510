package cluster

import (
	"bufio"
	"encoding/base64"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"exaloglog/server"
)

// This file is the streaming bulk-transfer transport used by rebalance,
// the digest round's repair and stray drain, and post-eviction data
// return. Instead of one CLUSTER ABSORB round trip per (key, owner)
// pair, a sender opens one dedicated connection per peer, frames N
// tagged key blobs per message, keeps a bounded window of frames in
// flight, and resumes from the last cumulatively acked frame after any
// timeout or connection drop. The protocol leans entirely on the
// paper's merge property: re-delivering a frame is an idempotent
// re-merge, so at-least-once is exactly-once in effect and resume needs
// no receiver-side undo log.
//
// Wire protocol (all lines ride the ordinary line protocol, under the
// CLUSTER verb, so the server needs no second listener):
//
//	CLUSTER XFER BEGIN e=<epoch> sid=<sid> seq=<n> → +OK seq=<resume> | -STALE e=<cur>
//	CLUSTER XFER FRAME <sid> <seq> <base64 frame>  → +ACK <cum>       | -STALE e=<cur> | -ERR ...
//	CLUSTER XFER END <sid> <keys> <bytes>          → +OK keys=.. bytes=.. | -ERR checksum ...
//
// The receiver tracks one session per sid: <cum> is the highest
// contiguously applied frame, duplicates (seq ≤ cum) are acked without
// re-applying, and gaps are rejected — the sender's resume handshake
// (BEGIN with seq = last acked + 1) re-synchronizes both sides after a
// redial. Sessions are epoch-fenced: a receiver whose map has moved to
// a newer epoch refuses the stream with -STALE and the sender re-plans
// its rebalance against the fresh map instead of delivering keys to an
// owner that may no longer own them.
//
// A frame is the server package's record format (server.EncodeFrame,
// "ELX3"), the one snapshot files are made of too: each record carries
// its key, its expiry deadline (so a key's lifetime rides rebalance with
// its registers) and its value blob as the store dumped it.
//
// Failure ladder: every frame write and ack read runs under
// TransferConfig.Timeout; on a timeout or drop the sender backs off
// (jittered exponential), redials and resumes; after RetryBudget
// attempts it degrades to the per-key CLUSTER ABSORB path — so bulk
// transfer can only ever be as unreliable as the pre-existing protocol,
// never less reliable.

const (
	// maxXferSessions caps the receiver's session table; the oldest
	// session is evicted first (a sender whose session was evicted
	// mid-stream sees "unknown session" and falls back to per-key
	// ABSORB, so the cap degrades service, never correctness).
	maxXferSessions = 256
	// maxXferBackoff caps the exponential retry backoff.
	maxXferBackoff = 2 * time.Second
)

// TransferConfig tunes the streaming bulk-transfer transport. Zero
// fields keep their defaults (the SetGossipConfig convention).
type TransferConfig struct {
	// BatchKeys is the maximum number of keys per frame (elld
	// -xfer-batch).
	BatchKeys int
	// FrameBytes soft-caps the per-frame payload: a frame closes early
	// once its raw size passes this (a single oversized blob still
	// travels alone).
	FrameBytes int
	// Window is the maximum number of unacked frames in flight (elld
	// -xfer-window).
	Window int
	// Timeout bounds every dial, frame write and ack read (elld
	// -peer-timeout).
	Timeout time.Duration
	// RetryBudget is how many times a broken stream redials and resumes
	// before degrading to per-key ABSORB.
	RetryBudget int
	// BackoffBase seeds the jittered exponential backoff between
	// stream retries.
	BackoffBase time.Duration
	// MinStreamKeys is the smallest push that opens a stream; smaller
	// pushes use per-key ABSORB directly (a one-key handshake+frame+end
	// exchange would cost more round trips than it saves).
	MinStreamKeys int
}

func defaultTransferConfig() TransferConfig {
	return TransferConfig{
		BatchKeys:     server.DefaultFrameKeys,
		FrameBytes:    server.DefaultFrameBytes,
		Window:        8,
		Timeout:       5 * time.Second,
		RetryBudget:   4,
		BackoffBase:   50 * time.Millisecond,
		MinStreamKeys: 4,
	}
}

// SetTransferConfig applies c to this node's bulk-transfer transport;
// zero fields keep their defaults. Safe to call at runtime; in-flight
// streams finish under the config they started with.
func (n *Node) SetTransferConfig(c TransferConfig) {
	d := defaultTransferConfig()
	if c.BatchKeys <= 0 {
		c.BatchKeys = d.BatchKeys
	}
	if c.BatchKeys > server.MaxFrameKeys {
		c.BatchKeys = server.MaxFrameKeys
	}
	if c.FrameBytes <= 0 {
		c.FrameBytes = d.FrameBytes
	}
	if c.FrameBytes > server.MaxFrameBytes {
		c.FrameBytes = server.MaxFrameBytes
	}
	if c.Window <= 0 {
		c.Window = d.Window
	}
	if c.Timeout <= 0 {
		c.Timeout = d.Timeout
	}
	if c.RetryBudget <= 0 {
		c.RetryBudget = d.RetryBudget
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = d.BackoffBase
	}
	if c.MinStreamKeys <= 0 {
		c.MinStreamKeys = d.MinStreamKeys
	}
	n.xfer.cfg.Store(&c)
}

func (n *Node) transferConfig() TransferConfig {
	if c := n.xfer.cfg.Load(); c != nil {
		return *c
	}
	return defaultTransferConfig()
}

// transferState is the per-node bulk-transfer state: sender-side
// counters and the receiver-side session table. It lives as one field
// on Node so node.go stays focused on membership.
type transferState struct {
	cfg atomic.Pointer[TransferConfig]
	sid atomic.Uint64 // sender: next stream ID suffix

	streams   atomic.Uint64 // streams opened (BEGIN handshakes accepted)
	resumed   atomic.Uint64 // streams that resumed after a broken attempt
	frames    atomic.Uint64 // frames written (including re-sent ones)
	retries   atomic.Uint64 // frames re-sent on a resumed stream
	bytes     atomic.Uint64 // payload (blob) bytes framed
	fallbacks atomic.Uint64 // keys degraded to per-key ABSORB
	wireBytes atomic.Uint64 // frame bytes actually written (pre-base64)

	mu    sync.Mutex
	sess  map[string]*xferSession
	clock uint64 // logical LRU clock for session eviction
}

// xferSession is the receiver's per-sid resume state.
type xferSession struct {
	mu     sync.Mutex
	epoch  uint64 // epoch the sender is streaming under (re-checked per frame)
	origin uint64 // first seq this incarnation of the session saw
	cum    uint64 // highest contiguously applied frame
	keys   uint64 // keys merged so far
	bytes  uint64 // blob bytes merged so far
	touch  uint64 // LRU clock value of the last access
}

// TransferStats is a snapshot of the bulk-transfer counters — the
// xfer_* fields of CLUSTER STATS and the ell_cluster_xfer_*_total
// Prometheus rows.
type TransferStats struct {
	StreamsOpened    uint64 // XFER streams opened
	StreamsResumed   uint64 // streams resumed after a timeout/drop
	FramesSent       uint64 // frames written, re-sends included
	FrameRetries     uint64 // frames re-sent on resumed streams
	BytesMoved       uint64 // payload bytes framed
	FallbackKeys     uint64 // keys that degraded to per-key ABSORB
	BytesPrecompress uint64 // equal to BytesWire: frames carry blobs as they are
	BytesWire        uint64 // frame bytes actually written, pre-base64
}

// TransferStats returns this node's cumulative bulk-transfer counters.
func (n *Node) TransferStats() TransferStats {
	wire := n.xfer.wireBytes.Load()
	return TransferStats{
		StreamsOpened:    n.xfer.streams.Load(),
		StreamsResumed:   n.xfer.resumed.Load(),
		FramesSent:       n.xfer.frames.Load(),
		FrameRetries:     n.xfer.retries.Load(),
		BytesMoved:       n.xfer.bytes.Load(),
		FallbackKeys:     n.xfer.fallbacks.Load(),
		BytesPrecompress: wire,
		BytesWire:        wire,
	}
}

// --- sender ------------------------------------------------------------

// errXferStale marks a stream the receiver refused because its map has
// moved to a newer epoch: the right response is to re-plan the whole
// rebalance against the fresh map, not to retry or fall back per key.
var errXferStale = errors.New("cluster: xfer stream refused: receiver map epoch is newer")

// errXferReject marks a reply-level rejection (an -ERR line): the
// receiver is reachable and answered, so redialing the same stream
// cannot help — degrade straight to per-key ABSORB.
var errXferReject = errors.New("cluster: xfer stream rejected by receiver")

// xferFrame is one pre-encoded outbound frame: its binary payload
// (base64-encoded into pooled scratch at write time), the items it
// carries (kept for the per-key fallback path) and their blob byte count.
type xferFrame struct {
	raw       []byte
	items     []server.KeyBlob
	blobBytes int
}

// buildFrames groups items into frames of at most cfg.BatchKeys keys
// and roughly cfg.FrameBytes payload bytes each (always at least one
// item per frame), and returns the frames plus the key/byte totals the
// XFER END checksum carries.
func buildFrames(items []server.KeyBlob, cfg TransferConfig) (frames []xferFrame, totKeys, totBytes uint64) {
	for i := 0; i < len(items); {
		j, raw := i, 0
		for j < len(items) && j-i < cfg.BatchKeys {
			sz := len(items[j].Key) + len(items[j].Blob)
			if j > i && raw+sz > cfg.FrameBytes {
				break
			}
			raw += sz
			j++
		}
		batch := items[i:j]
		blobBytes := 0
		for _, it := range batch {
			blobBytes += len(it.Blob)
		}
		frames = append(frames, xferFrame{
			raw:       server.EncodeFrame(batch),
			items:     batch,
			blobBytes: blobBytes,
		})
		totKeys += uint64(len(batch))
		totBytes += uint64(blobBytes)
		i = j
	}
	return frames, totKeys, totBytes
}

// lineScratch pools the per-stream scratch buffer frame lines are
// assembled (and base64-encoded) into, so a steady stream of frames
// allocates no per-frame wire buffers on the sender; the receiver
// borrows from the same pool for its base64 text copy. frameScratch
// pools the receiver's binary decode target separately (the two are
// alive at the same time).
var (
	lineScratch  = sync.Pool{New: func() any { return new([]byte) }}
	frameScratch = sync.Pool{New: func() any { return new([]byte) }}
)

// appendFrameLine assembles one "CLUSTER XFER FRAME <sid> <seq> <b64>"
// line (no trailing newline) into dst and returns it, growing dst only
// when the frame outgrows every previous tenant of the buffer.
func appendFrameLine(dst []byte, sid string, seq uint64, raw []byte) []byte {
	dst = append(dst, "CLUSTER XFER FRAME "...)
	dst = append(dst, sid...)
	dst = append(dst, ' ')
	dst = strconv.AppendUint(dst, seq, 10)
	dst = append(dst, ' ')
	n := base64.StdEncoding.EncodedLen(len(raw))
	dst = slices.Grow(dst, n)
	base64.StdEncoding.Encode(dst[len(dst):len(dst)+n], raw)
	return dst[:len(dst)+n]
}

// xferBackoff is the pause before retry attempt (1-based): exponential
// in the attempt, capped, with full jitter in [d/2, d] so retrying
// senders de-synchronize instead of thundering against a recovering
// peer.
func xferBackoff(base time.Duration, attempt int) time.Duration {
	d := base << (attempt - 1)
	if d > maxXferBackoff || d <= 0 {
		d = maxXferBackoff
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// parseXferReply splits a raw reply line into its body, mapping -STALE
// to errXferStale and any other error line to errXferReject.
func parseXferReply(line string) (string, error) {
	if line == "" {
		return "", fmt.Errorf("%w: empty reply", errXferReject)
	}
	switch line[0] {
	case '+':
		return line[1:], nil
	case '-':
		if strings.HasPrefix(line[1:], "STALE") {
			return "", fmt.Errorf("%w (%s)", errXferStale, line[1:])
		}
		return "", fmt.Errorf("%w: %s", errXferReject, line[1:])
	default:
		return "", fmt.Errorf("%w: unexpected reply %q", errXferReject, line)
	}
}

// streamTo pushes items to the peer at addr over one transfer stream
// under the given map epoch, retrying and resuming per the node's
// TransferConfig and degrading to per-key CLUSTER ABSORB once the
// retry budget is spent — or at once, for a push below MinStreamKeys,
// too small to amortize the handshake. It returns nil when every key
// landed, or a map of key → error for the keys that did not. A -STALE
// refusal marks every key with errXferStale so the caller re-plans
// against the fresh map instead of retrying blindly.
func (n *Node) streamTo(addr string, epoch uint64, items []server.KeyBlob) map[string]error {
	cfg := n.transferConfig()
	if len(items) < cfg.MinStreamKeys {
		return n.absorbEach(addr, items)
	}
	frames, totKeys, totBytes := buildFrames(items, cfg)
	sid := fmt.Sprintf("%s.%d", n.id, n.xfer.sid.Add(1))
	var acked, sent uint64 // frames cumulatively acked / highest frame written
	for attempt := 0; attempt <= cfg.RetryBudget; attempt++ {
		if attempt > 0 {
			time.Sleep(xferBackoff(cfg.BackoffBase, attempt))
		}
		err := n.runStream(addr, epoch, sid, frames, totKeys, totBytes, &acked, &sent, attempt > 0, cfg)
		if err == nil {
			if n.peers.alive != nil {
				n.peers.alive(addr) // a completed stream is liveness evidence
			}
			return nil
		}
		if errors.Is(err, errXferStale) {
			out := make(map[string]error, len(items))
			for _, it := range items {
				out[it.Key] = err
			}
			return out
		}
		if errors.Is(err, errXferReject) {
			break // the receiver answered and said no; redialing cannot help
		}
	}
	// Degrade gracefully: everything past the last acked frame goes out
	// over the pre-existing per-key path, so bulk transfer is never less
	// reliable than the protocol it replaced.
	var rest []server.KeyBlob
	for _, f := range frames[min(acked, uint64(len(frames))):] {
		rest = append(rest, f.items...)
	}
	n.xfer.fallbacks.Add(uint64(len(rest)))
	return n.absorbEach(addr, rest)
}

// runStream is one connection attempt of streamTo: dial, BEGIN
// handshake (resuming from *acked+1), windowed frame writes with
// cumulative ack reads, END checksum. Every write and read runs under
// cfg.Timeout; progress is reported back through *acked and *sent so
// the next attempt resumes instead of restarting.
func (n *Node) runStream(addr string, epoch uint64, sid string, frames []xferFrame, totKeys, totBytes uint64, acked, sent *uint64, resume bool, cfg TransferConfig) error {
	// The harness fault hook sees every logical protocol step BEFORE its
	// I/O (like pool.do), so simulated partitions and gates apply to
	// streams without real sockets hanging under them.
	consult := func(parts ...string) error {
		if h := n.peers.hook; h != nil {
			return h(addr, parts)
		}
		return nil
	}
	if err := consult("CLUSTER", "XFER", "BEGIN", "sid="+sid, "seq="+strconv.FormatUint(*acked+1, 10)); err != nil {
		return err
	}
	// A dedicated connection, NOT the peer pool: a stream holds its
	// connection for many round trips and must not block unrelated
	// forwarded commands behind it (nor deadlock with a rebalance
	// running on the receiver — the Join lesson).
	conn, err := net.DialTimeout("tcp", addr, cfg.Timeout)
	if err != nil {
		return err
	}
	defer conn.Close()
	r := bufio.NewReaderSize(conn, 4096)
	w := bufio.NewWriterSize(conn, 128*1024)
	writeLine := func(line string) error {
		conn.SetWriteDeadline(time.Now().Add(cfg.Timeout))
		if _, err := w.WriteString(line); err != nil {
			return err
		}
		return w.WriteByte('\n')
	}
	readLine := func() (string, error) {
		if err := w.Flush(); err != nil {
			return "", err
		}
		// Per-reply budget: a long stream is not one deadline.
		conn.SetReadDeadline(time.Now().Add(cfg.Timeout))
		line, err := r.ReadString('\n')
		if err != nil {
			return "", err
		}
		return strings.TrimRight(line, "\r\n"), nil
	}

	if err := writeLine(fmt.Sprintf("CLUSTER XFER BEGIN e=%d sid=%s seq=%d", epoch, sid, *acked+1)); err != nil {
		return err
	}
	line, err := readLine()
	if err != nil {
		return err
	}
	body, err := parseXferReply(line)
	if err != nil {
		return err
	}
	fields := strings.Fields(body)
	if len(fields) != 2 || fields[0] != "OK" || !strings.HasPrefix(fields[1], "seq=") {
		return fmt.Errorf("%w: unexpected XFER BEGIN reply %q", errXferReject, line)
	}
	start, perr := strconv.ParseUint(strings.TrimPrefix(fields[1], "seq="), 10, 64)
	if perr != nil {
		return fmt.Errorf("%w: bad resume seq in %q", errXferReject, line)
	}
	if start > *acked+1 {
		// The receiver's session holds more than we saw acked (our last
		// attempt died after the apply but before the ack arrived).
		// The receiver is authoritative — skip what it already has.
		*acked = start - 1
	}
	n.xfer.streams.Add(1)
	if resume {
		n.xfer.resumed.Add(1)
	}

	lp := lineScratch.Get().(*[]byte)
	defer func() {
		lineScratch.Put(lp)
	}()
	writeFrameLine := func(seq uint64, f xferFrame) error {
		*lp = appendFrameLine((*lp)[:0], sid, seq, f.raw)
		conn.SetWriteDeadline(time.Now().Add(cfg.Timeout))
		if _, err := w.Write(*lp); err != nil {
			return err
		}
		return w.WriteByte('\n')
	}

	total := uint64(len(frames))
	next := *acked + 1
	unread := 0 // replies outstanding: every written frame produces exactly one
	for *acked < total {
		for next <= total && unread < cfg.Window {
			f := frames[next-1]
			if err := consult("CLUSTER", "XFER", "FRAME", sid, strconv.FormatUint(next, 10)); err != nil {
				return err
			}
			if err := writeFrameLine(next, f); err != nil {
				return err
			}
			n.xfer.frames.Add(1)
			n.xfer.bytes.Add(uint64(f.blobBytes))
			n.xfer.wireBytes.Add(uint64(len(f.raw)))
			if next <= *sent {
				n.xfer.retries.Add(1) // re-sent on a resumed stream
			} else {
				*sent = next
			}
			next++
			unread++
		}
		line, err := readLine()
		if err != nil {
			return err
		}
		unread--
		body, err := parseXferReply(line)
		if err != nil {
			return err
		}
		af := strings.Fields(body)
		if len(af) != 2 || af[0] != "ACK" {
			return fmt.Errorf("%w: unexpected XFER FRAME reply %q", errXferReject, line)
		}
		cum, perr := strconv.ParseUint(af[1], 10, 64)
		if perr != nil {
			return fmt.Errorf("%w: bad ack in %q", errXferReject, line)
		}
		if cum > *acked {
			*acked = cum
		}
		if cum+1 > next {
			next = cum + 1
		}
	}
	for unread > 0 { // drain acks still in flight past the last frame
		if _, err := readLine(); err != nil {
			return err
		}
		unread--
	}
	if err := consult("CLUSTER", "XFER", "END", sid); err != nil {
		return err
	}
	if err := writeLine(fmt.Sprintf("CLUSTER XFER END %s %d %d", sid, totKeys, totBytes)); err != nil {
		return err
	}
	if line, err = readLine(); err != nil {
		return err
	}
	_, err = parseXferReply(line)
	return err
}

// --- receiver ----------------------------------------------------------

// xferSessionFor returns the session for sid, creating it with the
// given start sequence when absent (LRU-evicting the stalest session
// over the table cap). origin records the first seq this incarnation
// saw: a receiver that restarted mid-stream starts a fresh session at
// the sender's resume point, and END then skips the strict whole-stream
// checksum (it never saw the early frames — the sketch merge on the
// restored snapshot, not the tally, carries correctness there).
func (n *Node) xferSessionFor(sid string, startSeq uint64) *xferSession {
	x := &n.xfer
	x.mu.Lock()
	defer x.mu.Unlock()
	x.clock++
	if s, ok := x.sess[sid]; ok {
		s.touch = x.clock
		return s
	}
	if len(x.sess) >= maxXferSessions {
		var oldest string
		var oldestTouch uint64
		for id, s := range x.sess {
			if oldest == "" || s.touch < oldestTouch {
				oldest, oldestTouch = id, s.touch
			}
		}
		delete(x.sess, oldest)
	}
	s := &xferSession{origin: startSeq, cum: startSeq - 1, touch: x.clock}
	x.sess[sid] = s
	return s
}

func (n *Node) lookupXferSession(sid string) (*xferSession, bool) {
	x := &n.xfer
	x.mu.Lock()
	defer x.mu.Unlock()
	s, ok := x.sess[sid]
	if ok {
		x.clock++
		s.touch = x.clock
	}
	return s, ok
}

func (n *Node) dropXferSession(sid string) {
	x := &n.xfer
	x.mu.Lock()
	delete(x.sess, sid)
	x.mu.Unlock()
}

// handleXfer serves the receiver side of the transfer protocol (the
// CLUSTER XFER subcommands; see the file comment for the wire format).
func (n *Node) handleXfer(rest []string) string {
	if len(rest) == 0 {
		return "-ERR CLUSTER XFER needs BEGIN, FRAME or END"
	}
	switch strings.ToUpper(rest[0]) {
	case "BEGIN":
		return n.handleXferBegin(rest[1:])
	case "FRAME":
		return n.handleXferFrame(rest[1:])
	case "END":
		return n.handleXferEnd(rest[1:])
	default:
		return "-ERR unknown CLUSTER XFER subcommand " + rest[0]
	}
}

func (n *Node) handleXferBegin(args []string) string {
	if len(args) != 3 || !strings.HasPrefix(args[0], "e=") ||
		!strings.HasPrefix(args[1], "sid=") || !strings.HasPrefix(args[2], "seq=") {
		return "-ERR CLUSTER XFER BEGIN needs e=<epoch> sid=<id> seq=<n>"
	}
	epoch, err := strconv.ParseUint(strings.TrimPrefix(args[0], "e="), 10, 64)
	if err != nil {
		return "-ERR bad XFER epoch " + args[0]
	}
	sid := strings.TrimPrefix(args[1], "sid=")
	seq, err := strconv.ParseUint(strings.TrimPrefix(args[2], "seq="), 10, 64)
	if err != nil || sid == "" || seq == 0 {
		return "-ERR bad XFER sid/seq"
	}
	// Epoch fence: a sender streaming under an older map may be pushing
	// keys to an owner that no longer owns them. Refuse; the sender
	// re-plans against the newer map. (A sender AHEAD of us is fine —
	// its map will reach us via SETMAP or gossip, and accepting extra
	// keys early is harmless: strays drain.)
	if cur := n.currentMap(); cur.Epoch > epoch {
		return fmt.Sprintf("-STALE e=%d", cur.Epoch)
	}
	s := n.xferSessionFor(sid, seq)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.epoch = epoch
	// The session is authoritative about what it already applied: the
	// reply tells the sender where to (re)start, which both resumes
	// broken streams and skips frames whose ack was lost in flight.
	return fmt.Sprintf("+OK seq=%d", s.cum+1)
}

func (n *Node) handleXferFrame(args []string) string {
	if len(args) != 3 {
		return "-ERR CLUSTER XFER FRAME needs a session, a sequence number and a payload"
	}
	sid := args[0]
	seq, err := strconv.ParseUint(args[1], 10, 64)
	if err != nil || seq == 0 {
		return fmt.Sprintf("-ERR bad XFER frame seq %q", args[1])
	}
	s, ok := n.lookupXferSession(sid)
	if !ok {
		return "-ERR xfer: unknown session " + sid
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Re-check the fence per frame: the map can move mid-stream, and a
	// long stream must not keep landing keys under a dead epoch.
	if cur := n.currentMap(); cur.Epoch > s.epoch {
		return fmt.Sprintf("-STALE e=%d", cur.Epoch)
	}
	if seq <= s.cum {
		// Duplicate delivery after a resume: already merged (merging is
		// idempotent anyway), just re-ack.
		return "+ACK " + strconv.FormatUint(s.cum, 10)
	}
	if seq != s.cum+1 {
		return fmt.Sprintf("-ERR xfer: frame gap (have %d, got %d)", s.cum, seq)
	}
	// Decode into pooled scratch: the base64 text is copied into one
	// pooled buffer (strings can't feed base64.Decode directly) and
	// decoded into another, so a steady frame stream allocates no
	// per-frame receive buffers. The decoded items may alias the pooled
	// buffer; AbsorbBatch's merge paths copy everything they keep, so
	// both buffers are reusable the moment it returns.
	b64p := lineScratch.Get().(*[]byte)
	rawp := frameScratch.Get().(*[]byte)
	defer func() {
		lineScratch.Put(b64p)
		frameScratch.Put(rawp)
	}()
	*b64p = append((*b64p)[:0], args[2]...)
	need := base64.StdEncoding.DecodedLen(len(*b64p))
	*rawp = slices.Grow((*rawp)[:0], need)
	nDec, err := base64.StdEncoding.Decode((*rawp)[:need], *b64p)
	if err != nil {
		return "-ERR xfer: bad base64: " + err.Error()
	}
	items, err := server.DecodeFrame((*rawp)[:nDec])
	if err != nil {
		return "-ERR " + err.Error()
	}
	keys, bytes, err := n.store.AbsorbBatch(items)
	if err != nil {
		// A partially merged frame is safe (merges are idempotent; the
		// sender re-delivers), but cum must NOT advance past it.
		return "-ERR xfer: " + err.Error()
	}
	s.cum = seq
	s.keys += uint64(keys)
	s.bytes += uint64(bytes)
	return "+ACK " + strconv.FormatUint(s.cum, 10)
}

func (n *Node) handleXferEnd(args []string) string {
	if len(args) != 3 {
		return "-ERR CLUSTER XFER END needs a session, a key count and a byte count"
	}
	sid := args[0]
	wantKeys, err1 := strconv.ParseUint(args[1], 10, 64)
	wantBytes, err2 := strconv.ParseUint(args[2], 10, 64)
	if err1 != nil || err2 != nil {
		return "-ERR bad XFER END checksum"
	}
	s, ok := n.lookupXferSession(sid)
	if !ok {
		return "-ERR xfer: unknown session " + sid
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n.dropXferSession(sid) // END always closes the session, pass or fail
	// The strict whole-stream tally only holds when this session saw the
	// stream from frame 1; after a receiver restart the session begins
	// at the resume point and the earlier frames' tally lives in the
	// lost session (their DATA is safe — merged into the snapshot or
	// re-delivered idempotently — only the count is unknowable).
	if s.origin == 1 && (s.keys != wantKeys || s.bytes != wantBytes) {
		return fmt.Sprintf("-ERR xfer: checksum mismatch (got keys=%d bytes=%d, want keys=%d bytes=%d)",
			s.keys, s.bytes, wantKeys, wantBytes)
	}
	return fmt.Sprintf("+OK keys=%d bytes=%d", s.keys, s.bytes)
}
