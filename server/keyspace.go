package server

import (
	"errors"
	"strconv"
	"strings"
	"time"
)

// Keyspace is what the public data verbs act on: PFADD, PFCOUNT, PFMERGE,
// WADD, WCOUNT, WINFO, DEL, EXPIRE, PEXPIRE, TTL, PERSIST and KEYS. The
// server parses each of them, checks its arguments and renders its reply
// the same way in both modes; only the keyspace behind differs. A
// standalone server's is its Store; a cluster node's is the whole cluster
// (cluster.Node), which forwards writes to a key's owners and gathers
// reads from them.
//
// Byte-slice arguments are the tokens of a command line: non-empty, free
// of whitespace, and valid only until the method returns. A WindowCount
// timestamp of 0 means the key's newest observed one. WindowInfo reports a
// key held nowhere as ErrNoSuchKey.
type Keyspace interface {
	AddBytes(key []byte, elements [][]byte) (changed bool, err error)
	CountBytes(keys [][]byte) (float64, error)
	MergeKeys(dest string, sources ...string) error
	WindowAddBytes(key []byte, tsMillis int64, elements [][]byte) (accepted int, err error)
	WindowCount(key string, win time.Duration, tsMillis int64) (float64, error)
	WindowInfo(key string) (string, error)
	Del(key string) (existed bool, err error)
	ExpireAt(key string, deadlineMillis int64) (existed bool, err error)
	Deadline(key string) (deadlineMillis int64, ok bool, err error)
	Persist(key string) (removed bool, err error)
	AllKeys() ([]string, error)
}

// local is the keyspace of a standalone server: its store, as it is.
type local struct{ *Store }

func (l local) MergeKeys(dest string, sources ...string) error { return l.Merge(dest, sources...) }

func (l local) WindowCount(key string, win time.Duration, tsMillis int64) (float64, error) {
	var now time.Time // zero: the key's newest timestamp
	if tsMillis != 0 {
		now = time.UnixMilli(tsMillis)
	}
	return l.Store.WindowCount(key, win, now)
}

func (l local) WindowInfo(key string) (string, error) {
	info, ok, err := l.Store.WindowInfo(key)
	if err == nil && !ok {
		err = ErrNoSuchKey
	}
	return info, err
}

func (l local) Del(key string) (bool, error) { return l.Delete(key), nil }

func (l local) ExpireAt(key string, deadlineMillis int64) (bool, error) {
	return l.Store.ExpireAt(key, deadlineMillis), nil
}

func (l local) Deadline(key string) (int64, bool, error) {
	dl, ok := l.DeadlineOf(key)
	return dl, ok, nil
}

func (l local) Persist(key string) (bool, error) { return l.Store.Persist(key), nil }

func (l local) AllKeys() ([]string, error) { return l.Keys(), nil }

// registerKeyspaceVerbs registers the public data verbs, the front end
// both modes share.
func (s *Server) registerKeyspaceVerbs() {
	s.register("PFADD", &command{
		min: 2, max: -1,
		usage: "-ERR PFADD needs a key and at least one element",
		run: func(c *connCtx, args [][]byte) {
			c.writeBool(c.s.ks.AddBytes(args[0], args[1:]))
		},
	})
	s.register("PFCOUNT", &command{
		min: 1, max: -1,
		usage: "-ERR PFCOUNT needs at least one key",
		run: func(c *connCtx, args [][]byte) {
			n, err := c.s.ks.CountBytes(args)
			if err != nil {
				c.writeErr(err)
				return
			}
			c.writeInt(int64(n + 0.5))
		},
	})
	s.register("PFMERGE", &command{
		min: 2, max: -1,
		usage: "-ERR PFMERGE needs a destination and at least one source",
		run: func(c *connCtx, args [][]byte) {
			c.writeStatus(c.s.ks.MergeKeys(string(args[0]), StringArgs(args[1:])...))
		},
	})
	s.register("WADD", &command{
		min: 3, max: -1,
		usage: "-ERR WADD needs a key, a unix-millisecond timestamp and at least one element",
		run: func(c *connCtx, args [][]byte) {
			ts, ok := ParseIntBytes(args[1])
			if !ok {
				c.writeRaw("-ERR WADD timestamp must be an integer (unix milliseconds)")
				return
			}
			n, err := c.s.ks.WindowAddBytes(args[0], ts, args[2:])
			if err != nil {
				c.writeErr(err)
				return
			}
			c.writeInt(int64(n))
		},
	})
	s.register("WCOUNT", &command{
		min: 2, max: 3,
		usage: "-ERR WCOUNT needs a key and a window duration (plus an optional unix-millisecond timestamp)",
		run: func(c *connCtx, args [][]byte) {
			win, err := time.ParseDuration(string(args[1]))
			if err != nil || win <= 0 {
				c.writeRaw("-ERR WCOUNT window must be a positive duration like 30s or 5m")
				return
			}
			var ts int64
			if len(args) == 3 {
				var ok bool
				if ts, ok = ParseIntBytes(args[2]); !ok {
					c.writeRaw("-ERR WCOUNT timestamp must be an integer (unix milliseconds)")
					return
				}
			}
			n, err := c.s.ks.WindowCount(string(args[0]), win, ts)
			if err != nil {
				c.writeErr(err)
				return
			}
			c.writeInt(int64(n + 0.5))
		},
	})
	s.register("WINFO", &command{
		min: 1, max: 1,
		usage: "-ERR WINFO needs exactly one key",
		run: func(c *connCtx, args [][]byte) {
			info, err := c.s.ks.WindowInfo(string(args[0]))
			if err != nil {
				c.writeErr(err)
				return
			}
			c.writeRaw("+" + info)
		},
	})
	s.register("DEL", &command{
		min: 1, max: 1,
		usage: "-ERR DEL needs exactly one key",
		run: func(c *connCtx, args [][]byte) {
			c.writeBool(c.s.ks.Del(string(args[0])))
		},
	})
	s.register("EXPIRE", &command{
		min: 2, max: 2,
		usage: "-ERR EXPIRE needs a key and a TTL in seconds",
		run: func(c *connCtx, args [][]byte) {
			c.expire(args, 1000, "-ERR EXPIRE seconds must be a positive integer")
		},
	})
	s.register("PEXPIRE", &command{
		min: 2, max: 2,
		usage: "-ERR PEXPIRE needs a key and a TTL in milliseconds",
		run: func(c *connCtx, args [][]byte) {
			c.expire(args, 1, "-ERR PEXPIRE milliseconds must be a positive integer")
		},
	})
	s.register("TTL", &command{
		min: 1, max: 1,
		usage: "-ERR TTL needs exactly one key",
		run: func(c *connCtx, args [][]byte) {
			dl, ok, err := c.s.ks.Deadline(string(args[0]))
			if err != nil {
				c.writeErr(err)
				return
			}
			c.writeRaw(ttlReply(dl, ok, c.s.store.NowMillis()))
		},
	})
	s.register("PERSIST", &command{
		min: 1, max: 1,
		usage: "-ERR PERSIST needs exactly one key",
		run: func(c *connCtx, args [][]byte) {
			c.writeBool(c.s.ks.Persist(string(args[0])))
		},
	})
	s.register("KEYS", &command{
		max: -1,
		run: func(c *connCtx, args [][]byte) {
			keys, err := c.s.ks.AllKeys()
			if err != nil {
				c.writeErr(err)
				return
			}
			c.writeRaw("+" + strings.Join(keys, " "))
		},
	})
}

// expire is EXPIRE (scale 1000: seconds) and PEXPIRE (scale 1:
// milliseconds): check the TTL, then arm the absolute deadline it ends at,
// computed once, here, on the store's clock.
func (c *connCtx) expire(args [][]byte, scale int64, bad string) {
	v, ok := ParseIntBytes(args[1])
	if !ok || v <= 0 || v > MaxTTLMillis/scale {
		c.writeRaw(bad)
		return
	}
	c.writeBool(c.s.ks.ExpireAt(string(args[0]), c.s.store.NowMillis()+v*scale))
}

// ttlReply renders the Redis-convention TTL reply from a key's absolute
// deadline: :-2 missing key, :-1 no deadline, else the remaining whole
// seconds rounded up.
func ttlReply(deadlineMillis int64, ok bool, nowMillis int64) string {
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

// writeErr writes err's error reply. A missing key and a type mismatch
// read the same whichever layer found them — this store, or an owner a
// cluster node asked — so they are written as ErrNoSuchKey or ErrWrongType
// alone, which clients map back.
func (c *connCtx) writeErr(err error) {
	switch {
	case errors.Is(err, ErrWrongType):
		err = ErrWrongType
	case errors.Is(err, ErrNoSuchKey):
		err = ErrNoSuchKey
	}
	c.writeRaw("-ERR " + err.Error())
}

// writeBool writes :1 or :0, or err's error reply.
func (c *connCtx) writeBool(v bool, err error) {
	switch {
	case err != nil:
		c.writeErr(err)
	case v:
		c.writeRaw(":1")
	default:
		c.writeRaw(":0")
	}
}

// writeStatus writes +OK, or err's error reply.
func (c *connCtx) writeStatus(err error) {
	if err != nil {
		c.writeErr(err)
		return
	}
	c.writeRaw("+OK")
}
