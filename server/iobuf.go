package server

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"sync/atomic"
)

// The wire layer holds memory in proportion to the bytes in flight: a
// connection — the server's end or a Client — takes a buffer from bufPool
// when a burst outgrows what it keeps for itself and gives it back as soon
// as nothing is buffered, so ten thousand idle connections pin nothing.

// maxLineBytes caps one protocol line (RESTORE payloads are the big
// ones); a connection sending a longer line is dropped.
const maxLineBytes = 16 * 1024 * 1024

// connBufSize is the size of a pooled buffer: what a busy connection
// holds in each direction.
const connBufSize = 64 * 1024

// bufPool lends the buffers; held counts those checked out right now
// (the conn_buffers_held gauge, and times connBufSize conn_buffer_bytes).
var bufPool = struct {
	sync.Pool
	held atomic.Int64
}{Pool: sync.Pool{New: func() any { return new([connBufSize]byte) }}}

func getBuf() []byte {
	bufPool.held.Add(1)
	return bufPool.Get().(*[connBufSize]byte)[:]
}

// putBuf gives b back if it is a pooled buffer, told by its capacity: a
// connection's idle arrays are smaller and nil is empty, so a holder
// releases whatever it ended up with.
func putBuf(b []byte) {
	if cap(b) == connBufSize {
		bufPool.held.Add(-1)
		bufPool.Put((*[connBufSize]byte)(b[:connBufSize]))
	}
}

// lineReader cuts '\n'-terminated lines out of src through buf, which its
// owner swaps for a smaller array while the connection is idle.
type lineReader struct {
	src  io.Reader
	buf  []byte
	r, w int    // buf[r:w] is read and not yet returned
	long []byte // the line being read, once it has outgrown buf
}

// readLine returns the next line with its '\n'; the slice is valid until
// the next call. When the input ends it returns what was left, possibly
// nothing, and io.EOF.
func (lr *lineReader) readLine() ([]byte, error) {
	lr.long = lr.long[:0]
	for {
		if i := bytes.IndexByte(lr.buf[lr.r:lr.w], '\n'); i >= 0 {
			line := lr.buf[lr.r : lr.r+i+1]
			lr.r += i + 1
			if len(lr.long) > 0 {
				lr.long = append(lr.long, line...)
				line = lr.long
			}
			return line, nil
		}
		switch {
		case lr.r > 0: // a partial line at the end: slide it to the front
			lr.w = copy(lr.buf, lr.buf[lr.r:lr.w])
			lr.r = 0
		case lr.w < len(lr.buf):
		case len(lr.buf) < connBufSize: // the idle array is full: a burst, which gets a pooled buffer
			big := getBuf()
			copy(big, lr.buf)
			lr.buf = big
		default: // one line fills the pooled buffer
			if len(lr.long)+lr.w > maxLineBytes {
				return nil, errors.New("server: line longer than 16 MB")
			}
			lr.long = append(lr.long, lr.buf...)
			lr.w = 0
		}
		n, err := lr.src.Read(lr.buf[lr.w:])
		lr.w += n
		if n == 0 && err != nil {
			if err != io.EOF {
				return nil, err
			}
			lr.long = append(lr.long, lr.buf[:lr.w]...)
			lr.w = 0
			return lr.long, io.EOF
		}
	}
}
