package server

import (
	"bufio"
	"bytes"
	"fmt"
	"strings"
	"testing"
	"unsafe"
)

// TestConnectionScratchIsShed: one oversized command must not size a
// connection's line, argument and request buffers for the rest of its life.
func TestConnectionScratchIsShed(t *testing.T) {
	els := make([]string, 10000)
	for i := range els {
		els[i] = fmt.Sprintf("element-%06d", i)
	}
	big := "PFADD big " + strings.Join(els, " ") + "\n"

	// Server side, white box: serve the two commands from memory.
	srv := NewServer(newTestStore(t))
	var out bytes.Buffer
	cc := &connCtx{s: srv, w: bufio.NewWriterSize(&out, connBufSize)}
	if quit := cc.exec([]byte(big)); quit || cap(cc.args) < len(els) {
		t.Fatalf("exec alone kept %d argument slots of %d", cap(cc.args), len(els))
	}
	cc.serve(bufio.NewReaderSize(strings.NewReader(big+"PFCOUNT big\n"), connBufSize))
	if got := out.String(); !strings.HasPrefix(got, ":1\n:0\n:") || strings.Count(got, "\n") != 3 {
		t.Fatalf("replies %q, want :1 :0 and a count", got)
	}
	if cap(cc.long) > connBufSize || cap(cc.args)*argHeaderBytes > connBufSize {
		t.Errorf("after a small command the connection keeps %d line bytes and %d argument slots", cap(cc.long), cap(cc.args))
	}

	// Client side, over a real connection.
	_, c := startServer(t)
	if _, err := c.PFAdd("big", els...); err != nil {
		t.Fatal(err)
	}
	if n, err := c.PFCount("big"); err != nil || n < 9000 {
		t.Fatalf("count %d, %v", n, err)
	}
	if cap(c.wbuf) > connBufSize {
		t.Errorf("client keeps a %d-byte request buffer", cap(c.wbuf))
	}
}

// TestEntryStaysInItsSizeClass pins what entryOverhead assumes: an entry is
// allocated from the 96-byte class.
func TestEntryStaysInItsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(entry{}); size > 96 {
		t.Errorf("entry is %d bytes, past the 96-byte size class entryOverhead counts on", size)
	}
}
