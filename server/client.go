package server

import (
	"encoding/base64"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ErrNoSuchKey is returned (wrapped) when a command addresses a missing
// key; test with errors.Is.
var ErrNoSuchKey = errors.New("no such key")

// ErrWrongType is returned (wrapped) when a command addresses a key
// holding another value type — e.g. PFCOUNT on a windowed key, or WADD
// on a plain sketch; test with errors.Is. The message carries the
// Redis-style WRONGTYPE marker so it survives the wire.
var ErrWrongType = errors.New("WRONGTYPE key holds a value of another type")

// ReplyError wraps any error that arrived as a well-formed "-..." reply
// line: the peer parsed the command and answered it — the connection is
// healthy and stays usable. Its absence on a non-nil error means the
// failure was transport-grade (dial, read, write, malformed stream) and
// the connection state is unknown. Unwrap preserves errors.Is tests for
// ErrNoSuchKey / ErrWrongType and errors.As for *MovedError.
type ReplyError struct {
	Err error
}

func (e *ReplyError) Error() string { return e.Err.Error() }
func (e *ReplyError) Unwrap() error { return e.Err }

// IsReplyErr reports whether err was a well-formed error reply from the
// peer (as opposed to a transport failure). Callers pooling connections
// use it to classify: reply errors keep the connection and count as
// liveness evidence; everything else warrants a redial.
func IsReplyErr(err error) bool {
	var re *ReplyError
	return errors.As(err, &re)
}

// MovedError is the parsed form of a "-MOVED e=<epoch> <id>=<addr>"
// redirect reply: the contacted node runs strict routing and does not
// own the addressed key under its map (tagged with that map's epoch).
// The primary owner's id and address are carried so a smart client can
// retry there directly; the epoch lets it ignore redirects older than
// the map it already holds.
type MovedError struct {
	Epoch  uint64
	NodeID string
	Addr   string
}

func (e *MovedError) Error() string {
	return fmt.Sprintf("MOVED e=%d %s=%s", e.Epoch, e.NodeID, e.Addr)
}

// AsMoved extracts a MovedError from err (typically nested inside a
// ReplyError) if one is present.
func AsMoved(err error) (*MovedError, bool) {
	var m *MovedError
	if errors.As(err, &m) {
		return m, true
	}
	return nil, false
}

// parseMoved parses the payload after "-MOVED " — "e=<epoch>
// <id>=<addr>". ok is false when the payload doesn't match, in which
// case the reply falls through to a generic error.
func parseMoved(rest string) (*MovedError, bool) {
	epochTok, ownerTok, ok := strings.Cut(rest, " ")
	if !ok || strings.Contains(ownerTok, " ") {
		return nil, false
	}
	es, ok := strings.CutPrefix(epochTok, "e=")
	if !ok {
		return nil, false
	}
	epoch, err := strconv.ParseUint(es, 10, 64)
	if err != nil {
		return nil, false
	}
	id, addr, ok := strings.Cut(ownerTok, "=")
	if !ok || id == "" || addr == "" {
		return nil, false
	}
	return &MovedError{Epoch: epoch, NodeID: id, Addr: addr}, true
}

// Client is a minimal client for the sketch server protocol. It is safe
// for concurrent use: commands are serialized on the single connection,
// so goroutines sharing a Client queue behind each other. Use Pipeline
// to batch many commands into one round trip, or open multiple clients
// for connection-level parallelism.
type Client struct {
	mu      sync.Mutex
	conn    net.Conn
	timeout time.Duration // per-operation I/O deadline; 0 = none (guarded by mu)
	err     error         // the first transport failure, which every later operation returns (guarded by mu)
}

// Dial connects to a sketch server.
func Dial(addr string) (*Client, error) {
	return DialTimeout(addr, 0)
}

// DialTimeout is Dial with a connect deadline (0 = none). The deadline
// covers only the dial; call SetOpTimeout to bound the I/O of each
// subsequent operation.
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn}, nil
}

// SetOpTimeout bounds every subsequent operation's network I/O: each Do
// gets one deadline for its write+read, and each Pipeline.Exec refreshes
// it before every further reply read (a batch is allowed timeout per
// reply, not timeout total). 0 disables. A deadline
// that trips surfaces as a net timeout error — NOT a ReplyError — so
// connection-pooling callers classify it as a transport failure and drop
// the connection, exactly like a peer that vanished. They must: the late
// reply may still arrive, so after any transport failure the client
// answers every further operation with that first error.
func (c *Client) SetOpTimeout(d time.Duration) {
	c.mu.Lock()
	c.timeout = d
	c.mu.Unlock()
}

// armDeadline pushes the connection deadline timeout into the future
// (no-op when no timeout is set); callers hold c.mu.
func (c *Client) armDeadline() {
	if c.timeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.timeout))
	}
}

// clearDeadline removes any armed deadline so an idle pooled connection
// cannot time out between operations; callers hold c.mu.
func (c *Client) clearDeadline() {
	if c.timeout > 0 {
		c.conn.SetDeadline(time.Time{})
	}
}

// Close terminates the connection.
func (c *Client) Close() error {
	return c.conn.Close()
}

// ValidToken reports whether s can travel as one token of the line
// protocol: an empty token vanishes, and one holding a space, a tab or a
// line break is split into several tokens (or injected as a second command)
// on the server — silently corrupting the stream. It is called for every
// key and element of every command and routed add, so it is a loop over the
// bytes: the four are ASCII, which no byte of a longer rune equals.
func ValidToken(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c <= ' ' && (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
			return false
		}
	}
	return s != ""
}

// checkTokens rejects command tokens the line protocol cannot carry (see
// ValidToken, which the cluster package's validToken rule shares).
func checkTokens(parts []string) error {
	if len(parts) == 0 {
		return errors.New("server: empty command")
	}
	for _, p := range parts {
		if !ValidToken(p) {
			return fmt.Errorf("server: token %q must be non-empty and free of whitespace", p)
		}
	}
	return nil
}

// appendTokens appends the space-joined tokens of one command line to
// buf and returns the extended slice.
func appendTokens(buf []byte, parts []string) []byte {
	for i, p := range parts {
		if i > 0 {
			buf = append(buf, ' ')
		}
		buf = append(buf, p...)
	}
	return buf
}

// parseReply strips the type sigil from one reply line and converts
// protocol errors to Go errors.
func parseReply(line string) (string, error) {
	line = strings.TrimRight(line, "\r\n")
	if line == "" {
		return "", errors.New("server: empty reply")
	}
	switch line[0] {
	case '+', ':', '=':
		return line[1:], nil
	case '-':
		if rest, ok := strings.CutPrefix(line[1:], "MOVED "); ok {
			if mv, ok := parseMoved(rest); ok {
				return "", &ReplyError{Err: mv}
			}
		}
		msg := strings.TrimPrefix(line[1:], "ERR ")
		if msg == ErrNoSuchKey.Error() {
			return "", &ReplyError{Err: fmt.Errorf("server: %w", ErrNoSuchKey)}
		}
		if strings.HasSuffix(msg, ErrWrongType.Error()) {
			// The marker survives server-side wrapping ("server: count
			// "k": WRONGTYPE ..."), so clients can errors.Is-test it.
			return "", &ReplyError{Err: fmt.Errorf("%s%w", strings.TrimSuffix(msg, ErrWrongType.Error()), ErrWrongType)}
		}
		return "", &ReplyError{Err: errors.New(msg)}
	default:
		return "", fmt.Errorf("server: malformed reply %q", line)
	}
}

// Do sends one command line and returns the raw reply without its type
// sigil. Tokens must be non-empty and whitespace-free. Protocol errors
// come back as Go errors. Concurrent calls are serialized; each request
// sees its own reply.
func (c *Client) Do(parts ...string) (string, error) {
	if err := checkTokens(parts); err != nil {
		return "", err
	}
	return c.DoLine(func(line []byte) []byte { return appendTokens(line, parts) })
}

// DoLine is Do for a caller that writes its own command line: build
// appends the tokens, single spaces between them and no line break at
// the end, to the buffer the request is sent from. The caller answers
// for the tokens (see ValidToken).
func (c *Client) DoLine(build func(line []byte) []byte) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	buf := getBuf()
	defer putBuf(buf)
	var res [1]Result
	if err := c.exchange(append(build(buf[:0]), '\n'), buf, res[:]); err != nil {
		return "", err
	}
	return res[0].Value, res[0].Err
}

// exchange writes req and reads one reply into each element of res,
// through buf — which req may lie in: it is free once req is written.
// A connection holds a buffer only for as long as that takes. Callers
// hold c.mu.
func (c *Client) exchange(req, buf []byte, res []Result) (err error) {
	if c.err != nil {
		return c.err
	}
	defer func() { c.err = err }() // whatever fails below leaves the stream in an unknown state
	c.armDeadline()
	defer c.clearDeadline()
	if _, err := c.conn.Write(req); err != nil {
		return err
	}
	lr := lineReader{src: c.conn, buf: buf}
	for i := range res {
		if i > 0 {
			c.armDeadline() // per-reply budget: a long batch is not one deadline
		}
		line, err := lr.readLine()
		if err != nil {
			return fmt.Errorf("server: reply %d/%d: %w", i+1, len(res), err)
		}
		res[i].Value, res[i].Err = parseReply(string(line))
	}
	if lr.w > lr.r { // more than was asked for: whose reply the next line is can no longer be told
		return fmt.Errorf("server: %d unsolicited bytes after the reply", lr.w-lr.r)
	}
	return nil
}

// Result is one command's outcome within an executed Pipeline.
type Result struct {
	Value string // reply without its type sigil
	Err   error  // per-command protocol error, nil on success
}

// Pipeline queues commands and sends them all in a single write,
// reading the replies back in one batch — N commands cost one network
// round trip instead of N. Obtain one from Client.Pipeline, queue with
// Do/PFAdd/PFCount/Dump, then call Exec. A Pipeline is not safe for
// concurrent use; the Exec itself serializes with other commands on
// the shared connection. After Exec the pipeline is empty and can be
// reused. It takes a pooled buffer only inside Exec, for the replies, so
// a pipeline dropped with commands queued holds nothing of the pool.
type Pipeline struct {
	c   *Client
	buf []byte // the queued command lines
	n   int
	err error // first queueing error; reported by Exec
}

// Pipeline returns an empty command pipeline on this connection.
func (c *Client) Pipeline() *Pipeline { return &Pipeline{c: c} }

// Do queues one command. Invalid tokens poison the pipeline: Exec will
// report the first such error and send nothing.
func (p *Pipeline) Do(parts ...string) {
	if p.err != nil {
		return
	}
	if err := checkTokens(parts); err != nil {
		p.err = err
		return
	}
	p.buf = append(appendTokens(p.buf, parts), '\n')
	p.n++
}

// PFAdd queues a PFADD key element... command. (The typed methods gather
// a command's tokens on the stack; a longer one spills to the heap.)
func (p *Pipeline) PFAdd(key string, elements ...string) {
	var parts [8]string
	p.Do(append(append(parts[:0], "PFADD", key), elements...)...)
}

// PFCount queues a PFCOUNT key... command.
func (p *Pipeline) PFCount(keys ...string) {
	var parts [8]string
	p.Do(append(append(parts[:0], "PFCOUNT"), keys...)...)
}

// WAdd queues a WADD key ts element... command (ts in unix
// milliseconds).
func (p *Pipeline) WAdd(key string, tsMillis int64, elements ...string) {
	var parts [8]string
	p.Do(append(append(parts[:0], "WADD", key, strconv.FormatInt(tsMillis, 10)), elements...)...)
}

// WCount queues a WCOUNT key window command.
func (p *Pipeline) WCount(key string, window time.Duration) {
	p.Do("WCOUNT", key, window.String())
}

// Expire queues an EXPIRE key seconds command (ttl rounded up to whole
// seconds).
func (p *Pipeline) Expire(key string, ttl time.Duration) {
	secs := int64((ttl + time.Second - 1) / time.Second)
	p.Do("EXPIRE", key, strconv.FormatInt(secs, 10))
}

// Len returns the number of queued commands.
func (p *Pipeline) Len() int { return p.n }

// Exec sends every queued command in one write and reads the replies in
// order. The returned slice has one Result per queued command;
// per-command protocol errors land in Result.Err. A non-nil error means
// the batch as a whole failed (queueing error: nothing was sent;
// transport error: the connection is broken) — the results are then
// nil. Exec resets the pipeline for reuse either way.
func (p *Pipeline) Exec() ([]Result, error) {
	req, n, err := p.buf, p.n, p.err
	*p = Pipeline{c: p.c}
	if err != nil {
		return nil, err
	}
	return p.c.DoLines(req, n)
}

// DoLines is Exec for a caller that writes its own command lines: lines
// holds n of them, each ending in a line break, sent in one write; the n
// replies are read back in order. The caller answers for the tokens (see
// ValidToken).
func (c *Client) DoLines(lines []byte, n int) ([]Result, error) {
	if n == 0 {
		return nil, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	buf := getBuf()
	defer putBuf(buf)
	results := make([]Result, n)
	if err := c.exchange(lines, buf, results); err != nil {
		return nil, err
	}
	return results, nil
}

// PFAdd inserts elements into key; it reports whether the sketch changed.
func (c *Client) PFAdd(key string, elements ...string) (bool, error) {
	reply, err := c.Do(append([]string{"PFADD", key}, elements...)...)
	if err != nil {
		return false, err
	}
	return reply == "1", nil
}

// PFCount returns the estimated distinct count of the union of keys.
func (c *Client) PFCount(keys ...string) (int64, error) {
	reply, err := c.Do(append([]string{"PFCOUNT"}, keys...)...)
	if err != nil {
		return 0, err
	}
	return strconv.ParseInt(reply, 10, 64)
}

// PFMerge stores the union of the sources at dest.
func (c *Client) PFMerge(dest string, sources ...string) error {
	_, err := c.Do(append([]string{"PFMERGE", dest}, sources...)...)
	return err
}

// WAdd inserts elements observed at the unix-millisecond timestamp ts
// into the sliding-window counter at key (created on first use); it
// returns how many elements were accepted — the rest were older than
// the key's ring span.
func (c *Client) WAdd(key string, tsMillis int64, elements ...string) (int, error) {
	parts := make([]string, 0, 3+len(elements))
	parts = append(parts, "WADD", key, strconv.FormatInt(tsMillis, 10))
	reply, err := c.Do(append(parts, elements...)...)
	if err != nil {
		return 0, err
	}
	n, err := strconv.Atoi(reply)
	if err != nil {
		return 0, fmt.Errorf("server: unexpected WADD reply %q", reply)
	}
	return n, nil
}

// WCount returns the estimated distinct count the windowed key
// observed over the window ending at its newest timestamp.
func (c *Client) WCount(key string, window time.Duration) (int64, error) {
	reply, err := c.Do("WCOUNT", key, window.String())
	if err != nil {
		return 0, err
	}
	return strconv.ParseInt(reply, 10, 64)
}

// WCountAt is WCount with an explicit window end (unix milliseconds) —
// the deterministic form replayed streams and tests use.
func (c *Client) WCountAt(key string, window time.Duration, tsMillis int64) (int64, error) {
	reply, err := c.Do("WCOUNT", key, window.String(), strconv.FormatInt(tsMillis, 10))
	if err != nil {
		return 0, err
	}
	return strconv.ParseInt(reply, 10, 64)
}

// WInfo describes the windowed key: ring geometry, newest observed
// timestamp, dropped-insert count and full-span estimate.
func (c *Client) WInfo(key string) (string, error) {
	return c.Do("WINFO", key)
}

// Expire sets key's time-to-live in whole seconds (rounded up from the
// duration); it reports whether the key existed.
func (c *Client) Expire(key string, ttl time.Duration) (bool, error) {
	secs := int64((ttl + time.Second - 1) / time.Second)
	reply, err := c.Do("EXPIRE", key, strconv.FormatInt(secs, 10))
	if err != nil {
		return false, err
	}
	return reply == "1", nil
}

// PExpire sets key's time-to-live in milliseconds; it reports whether
// the key existed.
func (c *Client) PExpire(key string, ttl time.Duration) (bool, error) {
	reply, err := c.Do("PEXPIRE", key, strconv.FormatInt(ttl.Milliseconds(), 10))
	if err != nil {
		return false, err
	}
	return reply == "1", nil
}

// TTL returns key's remaining time-to-live in whole seconds, following
// the Redis convention: -2 missing key, -1 no deadline.
func (c *Client) TTL(key string) (int64, error) {
	reply, err := c.Do("TTL", key)
	if err != nil {
		return 0, err
	}
	return strconv.ParseInt(reply, 10, 64)
}

// Persist removes key's deadline; it reports whether one was removed.
func (c *Client) Persist(key string) (bool, error) {
	reply, err := c.Do("PERSIST", key)
	if err != nil {
		return false, err
	}
	return reply == "1", nil
}

// Del removes a key; it reports whether the key existed.
func (c *Client) Del(key string) (bool, error) {
	reply, err := c.Do("DEL", key)
	if err != nil {
		return false, err
	}
	return reply == "1", nil
}

// Keys lists all keys.
func (c *Client) Keys() ([]string, error) {
	reply, err := c.Do("KEYS")
	if err != nil {
		return nil, err
	}
	if reply == "" {
		return nil, nil
	}
	return strings.Fields(reply), nil
}

// Dump returns the serialized sketch at key.
func (c *Client) Dump(key string) ([]byte, error) {
	reply, err := c.Do("DUMP", key)
	if err != nil {
		return nil, err
	}
	return base64.StdEncoding.DecodeString(reply)
}

// Restore replaces the sketch at key with serialized sketch data.
func (c *Client) Restore(key string, data []byte) error {
	_, err := c.Do("RESTORE", key, base64.StdEncoding.EncodeToString(data))
	return err
}

// Ping checks liveness.
func (c *Client) Ping() error {
	reply, err := c.Do("PING")
	if err != nil {
		return err
	}
	if reply != "PONG" {
		return fmt.Errorf("server: unexpected ping reply %q", reply)
	}
	return nil
}
