package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"errors"
	"io"
	"math"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"
	"unsafe"
)

// Server serves the sketch store over TCP with a line-oriented protocol.
// Commands (case-insensitive verbs, space-separated tokens; elements must
// not contain whitespace):
//
//	PFADD key element [element ...]   → :1 if the state changed, :0 if not
//	PFCOUNT key [key ...]             → :<rounded union distinct count>
//	PFMERGE dest src [src ...]        → +OK
//	WADD key ts element [element ...] → :<accepted> (ts in unix milliseconds;
//	                                    elements older than the ring span are
//	                                    dropped and counted, see WINFO)
//	WCOUNT key window [ts]            → :<rounded distinct count over the
//	                                    window ending at ts (default: the
//	                                    key's newest observed timestamp)>;
//	                                    window is a Go duration, e.g. 30s
//	WINFO key                         → +slice=.. slices=.. span=.. latest=..
//	                                    dropped=.. bytes=.. estimate=..
//	DEL key                           → :1 if the key existed, :0 if not
//	KEYS                              → +<space-separated sorted keys>
//	INFO key                          → +<value-typed description>
//	DUMP key                          → =<base64 of the serialized value>
//	RESTORE key <base64>              → +OK
//	SAVE                              → +OK (snapshot to the configured path)
//	PING                              → +PONG
//	QUIT                              → +BYE and the connection closes
//
// Errors are reported as "-ERR <message>"; a typed-verb/value mismatch
// (e.g. PFCOUNT on a windowed key) mentions WRONGTYPE in the message.
//
// Dispatch is table-driven: every verb — built-in or registered through
// Handle — lives in one command registry entry carrying its arity check
// and handler, plus an optional allocation-free fast path for the hot
// verbs (PFADD, PFCOUNT, WADD, and what HandleBytes registers). Adding a
// workload's verbs means registering entries, not growing a switch.
type Server struct {
	store        *Store
	snapshotPath string
	commands     map[string]*command
	stats        *Stats

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup
	closed   bool
}

// Handler processes one command line (the verb's arguments, already
// tokenized) and returns the full reply including its type sigil, e.g.
// "+OK", ":1" or "-ERR ...".
type Handler func(args []string) (reply string)

// command is one registry entry: arity bounds (arguments after the
// verb; max < 0 means unbounded), the arity-failure reply and exactly one
// handler — run, which takes string arguments and returns the reply, or,
// for hot verbs, fast, which works on the in-place byte tokens and writes
// its own reply, allocating nothing.
type command struct {
	min, max int
	usage    string
	run      func(s *Server, args []string) (reply string, quit bool)
	fast     func(c *connCtx, args [][]byte)
	stats    *VerbStats // the verb's counter block, cached at register time
}

// register installs cmd under the (upper-case) verb name, replacing any
// existing entry. The verb's stats block is resolved here, once, so
// dispatch records metrics through a cached pointer — no map lookup, no
// lock, no allocation on the hot path. A re-registered verb (Handle
// overriding a builtin) keeps accumulating into the same block.
func (s *Server) register(verb string, cmd *command) {
	verb = strings.ToUpper(verb)
	cmd.stats = s.stats.verbFor(verb)
	s.commands[verb] = cmd
}

// NewServer returns a server wrapping the given store.
func NewServer(store *Store) *Server {
	s := &Server{store: store, conns: make(map[net.Conn]struct{}), commands: make(map[string]*command), stats: newStats()}
	s.registerBuiltins()
	return s
}

// Stats returns the server's runtime statistics core.
func (s *Server) Stats() *Stats { return s.stats }

// StatsText renders the STATS reply body (see Stats.Text).
func (s *Server) StatsText() string { return s.stats.Text(s.store) }

// WriteMetrics writes the server's statistics in Prometheus text
// exposition format — the payload behind elld's -metrics-addr listener.
func (s *Server) WriteMetrics(w io.Writer) { s.stats.WriteMetrics(w, s.store) }

// SetSnapshotPath enables the SAVE command, writing snapshots to path.
// Call before Listen.
func (s *Server) SetSnapshotPath(path string) { s.snapshotPath = path }

// Store returns the store this server serves.
func (s *Server) Store() *Store { return s.store }

// Handle registers a handler for verb (case-insensitive), taking
// precedence over the built-in command of the same name — including its
// fast path; a verb overridden here sees string arguments, one overridden
// with HandleBytes the byte tokens. This is the extension point the
// cluster package uses to layer CLUSTER verbs — and cluster-wide
// PFADD/PFCOUNT/WADD/WCOUNT semantics — onto the line protocol. Call
// before Listen; Handle is not safe to call concurrently with serving.
func (s *Server) Handle(verb string, h Handler) {
	s.register(verb, &command{
		max: -1,
		run: func(_ *Server, args []string) (string, bool) { return h(args), false },
	})
}

// ByteHandler is a Handler for a verb too hot to have a string made of
// every token: args are the tokens as they lie in the connection's read
// buffer, valid only until it returns, and the reply line is appended to
// reply, which the connection keeps for the next call.
type ByteHandler func(reply []byte, args [][]byte) []byte

// HandleBytes is Handle for a ByteHandler.
func (s *Server) HandleBytes(verb string, h ByteHandler) {
	s.register(verb, &command{
		max: -1,
		fast: func(c *connCtx, args [][]byte) {
			c.line = h(c.line[:0], args)
			c.writeRaw(unsafe.String(unsafe.SliceData(c.line), len(c.line))) // no copy: writeRaw only reads it
		},
	})
}

// StringArgs copies byte tokens into strings, for the part of a
// ByteHandler that is not hot.
func StringArgs(args [][]byte) []string {
	out := make([]string, len(args))
	for i, a := range args {
		out[i] = string(a)
	}
	return out
}

// registerBuiltins fills the command registry with the built-in verbs.
func (s *Server) registerBuiltins() {
	s.register("PFADD", &command{
		min: 2, max: -1,
		usage: "-ERR PFADD needs a key and at least one element",
		fast:  fastPFAdd,
	})
	s.register("PFCOUNT", &command{
		min: 1, max: -1,
		usage: "-ERR PFCOUNT needs at least one key",
		fast:  fastPFCount,
	})
	s.register("WADD", &command{
		min: 3, max: -1,
		usage: "-ERR WADD needs a key, a unix-millisecond timestamp and at least one element",
		fast:  fastWAdd,
	})
	s.register("WCOUNT", &command{
		min: 2, max: 3,
		usage: "-ERR WCOUNT needs a key and a window duration (plus an optional unix-millisecond timestamp)",
		run: func(s *Server, args []string) (string, bool) {
			win, err := time.ParseDuration(args[1])
			if err != nil || win <= 0 {
				return "-ERR WCOUNT window must be a positive duration like 30s or 5m", false
			}
			var now time.Time
			if len(args) == 3 {
				ts, err := strconv.ParseInt(args[2], 10, 64)
				if err != nil {
					return "-ERR WCOUNT timestamp must be an integer (unix milliseconds)", false
				}
				now = time.UnixMilli(ts)
			}
			n, err := s.store.WindowCount(args[0], win, now)
			if err != nil {
				return "-ERR " + err.Error(), false
			}
			return ":" + strconv.FormatInt(int64(n+0.5), 10), false
		},
	})
	s.register("WINFO", &command{
		min: 1, max: 1,
		usage: "-ERR WINFO needs exactly one key",
		run: func(s *Server, args []string) (string, bool) {
			info, ok, err := s.store.WindowInfo(args[0])
			if err != nil {
				return "-ERR " + err.Error(), false
			}
			if !ok {
				return "-ERR no such key", false
			}
			return "+" + info, false
		},
	})
	s.register("PFMERGE", &command{
		min: 2, max: -1,
		usage: "-ERR PFMERGE needs a destination and at least one source",
		run: func(s *Server, args []string) (string, bool) {
			if err := s.store.Merge(args[0], args[1:]...); err != nil {
				return "-ERR " + err.Error(), false
			}
			return "+OK", false
		},
	})
	s.register("DEL", &command{
		min: 1, max: 1,
		usage: "-ERR DEL needs exactly one key",
		run: func(s *Server, args []string) (string, bool) {
			return boolReply(s.store.Delete(args[0])), false
		},
	})
	s.register("EXPIRE", &command{
		min: 2, max: 2,
		usage: "-ERR EXPIRE needs a key and a TTL in seconds",
		run: func(s *Server, args []string) (string, bool) {
			secs, err := strconv.ParseInt(args[1], 10, 64)
			if err != nil || secs <= 0 || secs > MaxTTLMillis/1000 {
				return "-ERR EXPIRE seconds must be a positive integer", false
			}
			return boolReply(s.store.ExpireAt(args[0], s.store.NowMillis()+secs*1000)), false
		},
	})
	s.register("PEXPIRE", &command{
		min: 2, max: 2,
		usage: "-ERR PEXPIRE needs a key and a TTL in milliseconds",
		run: func(s *Server, args []string) (string, bool) {
			ms, err := strconv.ParseInt(args[1], 10, 64)
			if err != nil || ms <= 0 || ms > MaxTTLMillis {
				return "-ERR PEXPIRE milliseconds must be a positive integer", false
			}
			return boolReply(s.store.ExpireAt(args[0], s.store.NowMillis()+ms)), false
		},
	})
	s.register("TTL", &command{
		min: 1, max: 1,
		usage: "-ERR TTL needs exactly one key",
		run: func(s *Server, args []string) (string, bool) {
			dl, ok := s.store.DeadlineOf(args[0])
			return TTLReply(dl, ok, s.store.NowMillis()), false
		},
	})
	s.register("PERSIST", &command{
		min: 1, max: 1,
		usage: "-ERR PERSIST needs exactly one key",
		run: func(s *Server, args []string) (string, bool) {
			return boolReply(s.store.Persist(args[0])), false
		},
	})
	s.register("KEYS", &command{
		max: -1,
		run: func(s *Server, args []string) (string, bool) {
			return "+" + strings.Join(s.store.Keys(), " "), false
		},
	})
	s.register("INFO", &command{
		min: 1, max: 1,
		usage: "-ERR INFO needs exactly one key",
		run: func(s *Server, args []string) (string, bool) {
			info, ok := s.store.Info(args[0])
			if !ok {
				return "-ERR no such key", false
			}
			return "+" + info, false
		},
	})
	s.register("DUMP", &command{
		min: 1, max: 1,
		usage: "-ERR DUMP needs exactly one key",
		run: func(s *Server, args []string) (string, bool) {
			data, ok := s.store.Dump(args[0])
			if !ok {
				return "-ERR no such key", false
			}
			return "=" + base64.StdEncoding.EncodeToString(data), false
		},
	})
	s.register("RESTORE", &command{
		min: 2, max: 2,
		usage: "-ERR RESTORE needs a key and a base64 payload",
		run: func(s *Server, args []string) (string, bool) {
			data, err := base64.StdEncoding.DecodeString(args[1])
			if err != nil {
				return "-ERR bad base64: " + err.Error(), false
			}
			if err := s.store.Restore(args[0], data); err != nil {
				return "-ERR " + err.Error(), false
			}
			return "+OK", false
		},
	})
	s.register("SAVE", &command{
		max: -1,
		run: func(s *Server, args []string) (string, bool) {
			if s.snapshotPath == "" {
				return "-ERR no snapshot path configured", false
			}
			if err := s.store.SaveFile(s.snapshotPath); err != nil {
				return "-ERR " + err.Error(), false
			}
			return "+OK", false
		},
	})
	s.register("STATS", &command{
		max:   1,
		usage: "-ERR STATS takes at most one argument: RESET",
		run: func(s *Server, args []string) (string, bool) {
			if len(args) == 1 {
				if !strings.EqualFold(args[0], "RESET") {
					return "-ERR STATS takes at most one argument: RESET", false
				}
				s.stats.Reset()
				return "+OK", false
			}
			return "+" + s.stats.Text(s.store), false
		},
	})
	s.register("PING", &command{
		max: -1,
		run: func(s *Server, args []string) (string, bool) { return "+PONG", false },
	})
	s.register("QUIT", &command{
		max: -1,
		run: func(s *Server, args []string) (string, bool) { return "+BYE", true },
	})
}

func boolReply(v bool) string {
	if v {
		return ":1"
	}
	return ":0"
}

// TTLReply renders the Redis-convention TTL reply from a key's
// absolute deadline: :-2 missing key, :-1 no deadline, else the
// remaining whole seconds rounded up. Exported because the cluster
// layer reuses it after gathering deadlines from the owners.
func TTLReply(deadlineMillis int64, ok bool, nowMillis int64) string {
	if !ok {
		return ":-2"
	}
	if deadlineMillis == 0 {
		return ":-1"
	}
	remaining := deadlineMillis - nowMillis
	if remaining <= 0 {
		return ":-2" // due but not yet collected: already missing
	}
	return ":" + strconv.FormatInt((remaining+999)/1000, 10)
}

// Listen starts accepting connections on addr (e.g. "127.0.0.1:7700";
// port 0 picks a free port). It returns once the listener is bound; use
// Addr for the chosen address and Close to shut down.
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("server: already closed")
	}
	s.listener = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return nil
}

// Addr returns the bound listener address ("" before Listen).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.listener == nil {
		return ""
	}
	return s.listener.Addr().String()
}

// Close stops the listener, closes all connections and waits for the
// connection handlers to finish.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.listener
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.stats.connsCur.Add(1)
		s.stats.connsTotal.Add(1)
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.stats.connsCur.Add(-1)
	}()
	s.ServeStream(conn, conn)
}

// ServeStream serves the protocol on a byte stream until r ends or a
// QUIT arrives: everything a connection does, without a socket — how
// tests, benchmarks and fuzz targets reach the verbs a package registers.
func (s *Server) ServeStream(r io.Reader, w io.Writer) { newConnCtx(s, r, w).serve() }

// connCtx is the per-connection dispatch state. Between bursts it is all
// a connection holds: requests are awaited in idleIn, and a command that
// fits there is tokenized into idleArgs and answered from idleOut. A burst
// that outgrows them takes pooled buffers, which release gives back, with
// everything the burst allocated, once nothing is buffered either way.
type connCtx struct {
	s    *Server
	in   lineReader
	dst  io.Writer
	out  []byte // replies not yet written to dst
	werr error  // the first failed write to dst
	args [][]byte
	line []byte // a ByteHandler's reply

	// Per-command reply accounting, reset by exec before dispatch and
	// read back into the verb's stats block afterwards: writeRaw and
	// writeInt bump outBytes, and writeRaw flags an "-ERR ..." reply.
	outBytes int
	wroteErr bool

	idleIn   [512]byte
	idleOut  [64]byte
	idleLine [64]byte
	idleArgs [8][]byte
}

func newConnCtx(s *Server, src io.Reader, dst io.Writer) *connCtx {
	c := &connCtx{s: s, dst: dst}
	c.in.src = src
	c.release()
	return c
}

// release writes out the replies and puts the connection in its idle
// state (unread requests, if any, are lost). The read side goes first:
// by the time the peer sees its reply, the request's buffer is back in
// the pool.
func (c *connCtx) release() {
	putBuf(c.in.buf)
	c.in.buf, c.in.r, c.in.w, c.in.long = c.idleIn[:], 0, 0, nil
	c.args = c.idleArgs[:0]
	c.flush()
	putBuf(c.out)
	c.out, c.line = c.idleOut[:0], c.idleLine[:0]
}

// serve reads command lines and executes them until the peer quits,
// hangs up or sends a line that is too long.
func (c *connCtx) serve() {
	defer c.release()
	for {
		line, err := c.in.readLine()
		if err != nil && err != io.EOF {
			return
		}
		done := c.exec(line) || err == io.EOF
		// Coalesced flush: only flush when no further request is
		// already buffered, so a pipelining client pays one write
		// syscall per burst instead of one per command.
		if done || c.in.r == c.in.w {
			c.release()
			if done || c.werr != nil {
				return
			}
		}
	}
}

func isLineSpace(b byte) bool {
	return b == ' ' || b == '\t' || b == '\r' || b == '\n'
}

// tokenize splits line into whitespace-separated tokens in place,
// reusing c.args. The returned subslices alias line.
func (c *connCtx) tokenize(line []byte) [][]byte {
	args := c.args[:0]
	if n := bytes.Count(line, []byte(" ")) + 1; n > cap(args) {
		args = make([][]byte, 0, n) // once, not by doubling: an idle connection keeps no slots
	}
	for i := 0; i < len(line); {
		for i < len(line) && isLineSpace(line[i]) {
			i++
		}
		start := i
		for i < len(line) && !isLineSpace(line[i]) {
			i++
		}
		if i > start {
			args = append(args, line[start:i])
		}
	}
	c.args = args
	return args
}

// upperInPlace ASCII-uppercases b (verbs are ASCII; other bytes pass
// through and simply fail the verb match).
func upperInPlace(b []byte) {
	for i, ch := range b {
		if 'a' <= ch && ch <= 'z' {
			b[i] = ch - 'a' + 'A'
		}
	}
}

func (c *connCtx) writeRaw(reply string) {
	// One reply is one line — that IS the protocol. An embedded newline
	// (e.g. an errors.Join of several owners' failures bubbling into an
	// "-ERR ..." reply) would split into two wire lines and desynchronize
	// every pipelining client, so fold it here, centrally. The scan is
	// free on the clean path (no allocation unless a newline exists).
	if strings.ContainsAny(reply, "\r\n") {
		reply = strings.NewReplacer("\r\n", "; ", "\n", "; ", "\r", "; ").Replace(reply)
	}
	if len(reply) > 0 && reply[0] == '-' {
		c.wroteErr = true
	}
	c.outBytes += len(reply) + 1
	for len(reply) > 0 {
		c.reserve(1)
		n := copy(c.out[len(c.out):cap(c.out)], reply)
		c.out, reply = c.out[:len(c.out)+n], reply[n:]
	}
	c.reserve(1)
	c.out = append(c.out, '\n')
}

func (c *connCtx) writeInt(v int64) {
	c.reserve(22) // ':', an int64's 20 bytes, '\n'
	n := len(c.out)
	c.out = append(strconv.AppendInt(append(c.out, ':'), v, 10), '\n')
	c.outBytes += len(c.out) - n
}

// reserve makes room for n (at most idleOut's size) more reply bytes:
// replies that outgrow the idle array move to a pooled buffer, and a
// full pooled buffer is written out.
func (c *connCtx) reserve(n int) {
	switch {
	case cap(c.out)-len(c.out) >= n:
	case cap(c.out) < connBufSize:
		c.out = append(getBuf()[:0], c.out...)
	default:
		c.flush()
	}
}

// flush writes the buffered replies to the peer.
func (c *connCtx) flush() {
	if len(c.out) > 0 && c.werr == nil {
		_, c.werr = c.dst.Write(c.out)
	}
	c.out = c.out[:0]
}

// ParseIntBytes parses a signed decimal int64 from b without
// allocating — strconv.ParseInt for a ByteHandler and the fast paths.
func ParseIntBytes(b []byte) (int64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	neg := false
	i := 0
	if b[0] == '-' || b[0] == '+' {
		neg = b[0] == '-'
		if i++; i == len(b) {
			return 0, false
		}
	}
	var v int64
	for ; i < len(b); i++ {
		d := b[i] - '0'
		if d > 9 {
			return 0, false
		}
		if v > (math.MaxInt64-int64(d))/10 {
			return 0, false
		}
		v = v*10 + int64(d)
	}
	if neg {
		v = -v
	}
	return v, true
}

// exec runs one command line, writing the reply into c.out, and reports
// whether the connection should close. The verb is resolved through
// the command registry exactly once: entries with a fast handler
// (PFADD, PFCOUNT, WADD — unless overridden — and a ByteHandler) run on
// the allocation-free path where tokens stay []byte end to end and
// integer replies are appended to the reply buffer; all other entries
// materialize string arguments for their regular handler.
func (c *connCtx) exec(line []byte) (quit bool) {
	args := c.tokenize(line)
	if len(args) == 0 {
		return false // blank line: ignored, no reply
	}
	start := time.Now()
	c.outBytes, c.wroteErr = 0, false
	verb := args[0]
	upperInPlace(verb)
	cmd, ok := c.s.commands[string(verb)] // compiles without allocating the string
	if !ok {
		c.writeRaw("-ERR unknown command " + string(verb))
		c.s.stats.unknown.record(len(line), c.outBytes, c.wroteErr, time.Since(start))
		return false
	}
	n := len(args) - 1
	if n < cmd.min || (cmd.max >= 0 && n > cmd.max) {
		c.writeRaw(cmd.usage)
		cmd.stats.record(len(line), c.outBytes, c.wroteErr, time.Since(start))
		return false
	}
	if cmd.fast != nil {
		cmd.fast(c, args[1:])
		cmd.stats.record(len(line), c.outBytes, c.wroteErr, time.Since(start))
		return false
	}
	reply, quit := cmd.run(c.s, StringArgs(args[1:]))
	c.writeRaw(reply)
	cmd.stats.record(len(line), c.outBytes, c.wroteErr, time.Since(start))
	return quit
}

// --- fast-path handlers ------------------------------------------------

func fastPFAdd(c *connCtx, args [][]byte) {
	changed, err := c.s.store.AddBytes(args[0], args[1:])
	if err != nil {
		c.writeRaw("-ERR " + err.Error())
		return
	}
	if changed {
		c.writeRaw(":1")
	} else {
		c.writeRaw(":0")
	}
}

func fastPFCount(c *connCtx, args [][]byte) {
	n, err := c.s.store.CountBytes(args)
	if err != nil {
		c.writeRaw("-ERR " + err.Error())
		return
	}
	c.writeInt(int64(n + 0.5))
}

func fastWAdd(c *connCtx, args [][]byte) {
	ts, ok := ParseIntBytes(args[1])
	if !ok {
		c.writeRaw("-ERR WADD timestamp must be an integer (unix milliseconds)")
		return
	}
	n, err := c.s.store.WindowAddBytes(args[0], ts, args[2:])
	if err != nil {
		c.writeRaw("-ERR " + err.Error())
		return
	}
	c.writeInt(int64(n))
}

// Serve is a convenience for binaries: listen on addr and block until ctx
// is cancelled, then shut down.
func (s *Server) Serve(ctx context.Context, addr string) error {
	if err := s.Listen(addr); err != nil {
		return err
	}
	<-ctx.Done()
	return s.Close()
}
