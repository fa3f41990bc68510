package server

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"exaloglog/internal/core"
)

// TestConnectionScratchIsShed: one oversized command must not size a
// connection's line, argument and request buffers for the rest of its life.
func TestConnectionScratchIsShed(t *testing.T) {
	els := make([]string, 10000)
	for i := range els {
		els[i] = fmt.Sprintf("element-%06d", i)
	}
	big := "PFADD big " + strings.Join(els, " ") + "\n"
	held0 := bufPool.held.Load()

	// Server side, white box: serve the two commands from memory.
	srv := NewServer(newTestStore(t))
	var out bytes.Buffer
	cc := newConnCtx(srv, strings.NewReader(big+"PFCOUNT big\n"), &out)
	if quit := cc.exec([]byte(big)); quit || cap(cc.args) < len(els) {
		t.Fatalf("exec alone kept %d argument slots of %d", cap(cc.args), len(els))
	}
	cc.serve()
	if got := out.String(); !strings.HasPrefix(got, ":1\n:0\n:") || strings.Count(got, "\n") != 3 {
		t.Fatalf("replies %q, want :1 :0 and a count", got)
	}
	if cap(cc.in.long) > 0 || cap(cc.args) > len(cc.idleArgs) || len(cc.in.buf) > len(cc.idleIn) || cap(cc.out) > len(cc.idleOut) {
		t.Errorf("an idle connection keeps %d line bytes, %d argument slots, a %d-byte read and a %d-byte reply buffer",
			cap(cc.in.long), cap(cc.args), len(cc.in.buf), cap(cc.out))
	}

	// Client side, over a real connection.
	_, c := startServer(t)
	if _, err := c.PFAdd("big", els...); err != nil {
		t.Fatal(err)
	}
	if n, err := c.PFCount("big"); err != nil || n < 9000 {
		t.Fatalf("count %d, %v", n, err)
	}
	waitBuffersHeld(t, held0)
}

// TestEntryStaysInItsSizeClass pins what entryOverhead assumes: an entry,
// the plain key's Hybrid inside it, is allocated from the 80-byte class,
// and the Hybrid that entry.SizeBytes leaves to the entry is the struct
// that MemoryFootprint counts.
func TestEntryStaysInItsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(entry{}); size != 80 {
		t.Errorf("entry is %d bytes with its embedded %d-byte core.Hybrid, not the 80 bytes entryOverhead counts on",
			size, unsafe.Sizeof(core.Hybrid{}))
	}
	if got := (&entry{}).SizeBytes(); got != 0 {
		t.Errorf("an empty Hybrid's MemoryFootprint is %d bytes beyond the %d-byte struct the entry holds", got, hybridSize)
	}
}
