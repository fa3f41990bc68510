package server

import (
	"bytes"
	"encoding/base64"
	"errors"
	"io"
	"math"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
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
// Dispatch is table-driven: every verb lives in one command registry entry
// carrying its arity check and its one handler, which works on the command
// line's byte tokens in place and writes its own reply. The public data
// verbs — PFADD through KEYS, see Keyspace — are one front end in both
// modes: they parse and answer here and act on the server's keyspace, the
// store itself, or the whole cluster behind a cluster node (SetKeyspace).
// DUMP, RESTORE, INFO and SAVE stay node-local in both. Handle adds a verb,
// or a two-word one ("CLUSTER INFO") to its first word's sub-table; adding a
// workload's verbs means registering entries, not growing a switch.
type Server struct {
	store        *Store
	ks           Keyspace
	snapshotPath string
	commands     map[string]*command
	stats        *Stats

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup
	closed   bool
}

// command is one registry entry: arity bounds (arguments after the verb;
// max < 0 means unbounded), the arity-failure reply and the handler, which
// gets the tokens as they lie in the connection's read buffer, valid only
// until it returns, and writes its reply through the connection. A verb
// with subverbs keeps them in subs; its own handler refuses an unknown one.
type command struct {
	min, max int
	usage    string
	run      func(c *connCtx, args [][]byte)
	name     string                    // its stats row: the verb, "VERB.SUB" for a subverb
	stats    atomic.Pointer[VerbStats] // its counter block, cached by its first command
	subs     map[string]*command
}

// register installs cmd under the (upper-case) verb name, replacing any
// existing entry; a two-word name goes into the first word's sub-table.
// The verb's first command caches its stats block in the entry: dispatch
// records through that pointer (no map lookup, lock or allocation), no
// block is kept for a verb never sent, and a re-registered verb keeps
// accumulating into the same block.
func (s *Server) register(verb string, cmd *command) {
	verb = strings.ToUpper(verb)
	cmd.name = strings.Replace(verb, " ", ".", 1)
	table := s.commands
	if name, sub, ok := strings.Cut(verb, " "); ok {
		parent := s.commands[name]
		if parent == nil || parent.subs == nil {
			parent = &command{min: 1, max: -1, usage: "-ERR " + name + " needs a subcommand", subs: map[string]*command{}}
			parent.run = func(c *connCtx, args [][]byte) { c.writeRaw("-ERR unknown " + name + " subcommand " + string(args[0])) }
			s.register(name, parent)
		}
		table, verb = parent.subs, sub
	}
	table[verb] = cmd
}

// NewServer returns a server wrapping the given store, which is also the
// keyspace its data verbs act on until SetKeyspace.
func NewServer(store *Store) *Server {
	s := &Server{store: store, ks: local{store}, conns: make(map[net.Conn]struct{}), commands: make(map[string]*command), stats: newStats()}
	s.registerBuiltins()
	return s
}

// SetKeyspace makes ks the keyspace the public data verbs act on — how a
// cluster node answers them cluster-wide through the same front end. Call
// before Listen.
func (s *Server) SetKeyspace(ks Keyspace) { s.ks = ks }

// Stats returns the server's runtime statistics core.
func (s *Server) Stats() *Stats { return s.stats }

// WriteMetrics writes the server's statistics in Prometheus text
// exposition format — the payload behind elld's -metrics-addr listener.
func (s *Server) WriteMetrics(w io.Writer) { s.stats.WriteMetrics(w, s.store) }

// SetSnapshotPath enables the SAVE command, writing snapshots to path.
// Call before Listen.
func (s *Server) SetSnapshotPath(path string) { s.snapshotPath = path }

// ByteHandler answers one command of a verb registered with Handle: args
// are the tokens after the verb as they lie in the connection's read
// buffer, valid only until it returns, and the reply line is appended to
// reply, which the connection keeps for the next call.
type ByteHandler func(reply []byte, args [][]byte) []byte

// Handle registers h for verb (case-insensitive), replacing a built-in
// command of the same name; a two-word verb ("CLUSTER INFO") is a subverb
// with a stats row of its own. h runs when min to max arguments follow the
// verb (max < 0: no upper bound); any other count is answered usage. Call
// before Listen; Handle is not safe to call concurrently with serving.
func (s *Server) Handle(verb string, min, max int, usage string, h ByteHandler) {
	s.register(verb, &command{
		min: min, max: max, usage: usage,
		run: func(c *connCtx, args [][]byte) {
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

// registerBuiltins fills the command registry with the built-in verbs: the
// keyspace's (see keyspace.go) and the node-local ones.
func (s *Server) registerBuiltins() {
	s.registerKeyspaceVerbs()
	s.register("INFO", &command{
		min: 1, max: 1,
		usage: "-ERR INFO needs exactly one key",
		run: func(c *connCtx, args [][]byte) {
			info, ok := c.s.store.Info(string(args[0]))
			if !ok {
				c.writeRaw("-ERR no such key")
				return
			}
			c.writeRaw("+" + info)
		},
	})
	s.register("DUMP", &command{
		min: 1, max: 1,
		usage: "-ERR DUMP needs exactly one key",
		run: func(c *connCtx, args [][]byte) {
			data, ok := c.s.store.Dump(string(args[0]))
			if !ok {
				c.writeRaw("-ERR no such key")
				return
			}
			c.writeRaw("=" + base64.StdEncoding.EncodeToString(data))
		},
	})
	s.register("RESTORE", &command{
		min: 2, max: 2,
		usage: "-ERR RESTORE needs a key and a base64 payload",
		run: func(c *connCtx, args [][]byte) {
			data, err := base64.StdEncoding.AppendDecode(nil, args[1])
			if err != nil {
				c.writeRaw("-ERR bad base64: " + err.Error())
				return
			}
			c.writeStatus(c.s.store.Restore(string(args[0]), data))
		},
	})
	s.register("SAVE", &command{
		max: -1,
		run: func(c *connCtx, args [][]byte) {
			if c.s.snapshotPath == "" {
				c.writeRaw("-ERR no snapshot path configured")
				return
			}
			c.writeStatus(c.s.store.SaveFile(c.s.snapshotPath))
		},
	})
	s.register("STATS", &command{
		max:   1,
		usage: "-ERR STATS takes at most one argument: RESET",
		run: func(c *connCtx, args [][]byte) {
			if len(args) == 1 {
				if !bytes.EqualFold(args[0], []byte("RESET")) {
					c.writeRaw("-ERR STATS takes at most one argument: RESET")
					return
				}
				c.s.stats.Reset()
				c.writeRaw("+OK")
				return
			}
			c.writeRaw("+" + c.s.stats.Text(c.s.store))
		},
	})
	s.register("PING", &command{
		max: -1,
		run: func(c *connCtx, args [][]byte) { c.writeRaw("+PONG") },
	})
	s.register("QUIT", &command{
		max: -1,
		run: func(c *connCtx, args [][]byte) {
			c.writeRaw("+BYE")
			c.quit = true
		},
	})
}

// Listen starts accepting connections on addr (e.g. "127.0.0.1:7700";
// port 0 picks a free port). It returns once the listener is bound; use
// Addr for the chosen address and Close to shut down.
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve starts accepting connections on ln, which the server owns from
// then on: Close closes it. It returns at once; Addr is ln's address.
func (s *Server) Serve(ln net.Listener) error {
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
	quit bool   // the command just run closes the connection (QUIT)

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
// allocating — strconv.ParseInt for the handlers of the hot verbs.
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
// whether the connection should close. The verb is resolved through the
// command registry exactly once — a verb with subverbs resolves its second
// word the same way, in place — and its handler works on the tokens in
// place: the hot verbs (PFADD, PFCOUNT, WADD) allocate nothing, and integer
// replies are appended to the reply buffer.
func (c *connCtx) exec(line []byte) (quit bool) {
	args := c.tokenize(line)
	if len(args) == 0 {
		return false // blank line: ignored, no reply
	}
	start := time.Now()
	c.outBytes, c.wroteErr, c.quit = 0, false, false
	verb := args[0]
	upperInPlace(verb)
	cmd, ok := c.s.commands[string(verb)] // compiles without allocating the string
	if !ok {
		c.writeRaw("-ERR unknown command " + string(verb))
		c.s.stats.unknown.record(len(line), c.outBytes, c.wroteErr, time.Since(start))
		return false
	}
	if cmd.subs != nil && len(args) > 1 {
		upperInPlace(args[1])
		if sub, ok := cmd.subs[string(args[1])]; ok {
			cmd, args = sub, args[1:]
		}
	}
	if n := len(args) - 1; n < cmd.min || (cmd.max >= 0 && n > cmd.max) {
		c.writeRaw(cmd.usage)
	} else {
		cmd.run(c, args[1:])
	}
	st := cmd.stats.Load()
	if st == nil {
		st = c.s.stats.verbFor(cmd.name)
		cmd.stats.Store(st)
	}
	st.record(len(line), c.outBytes, c.wroteErr, time.Since(start))
	return c.quit
}
