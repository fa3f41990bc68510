package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"exaloglog/server"
)

// output is a Writer the test can read while run still writes to it.
type output struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (o *output) Write(p []byte) (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.buf.Write(p)
}

func (o *output) String() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.buf.String()
}

func TestRunUsageAndStartupErrors(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		code   int
		stderr string
	}{
		{[]string{"-no-such-flag"}, 2, "flag provided but not defined"},
		{[]string{"-strict-routing", "-addr", "127.0.0.1:0"}, 1, "-strict-routing requires cluster mode (-node-id)"},
	} {
		var out, errOut bytes.Buffer
		code := run(context.Background(), tc.args, &out, &errOut)
		if code != tc.code || out.Len() != 0 || !strings.Contains(errOut.String(), tc.stderr) {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit %d and %q on stderr",
				tc.args, code, out.String(), errOut.String(), tc.code, tc.stderr)
		}
	}
}

// TestRunClusterNodeServesAndSavesOnCancel boots a one-node cluster with
// fast tickers, writes through the wire, cancels — the SIGTERM path —
// and expects a clean exit with the final snapshot on disk.
func TestRunClusterNodeServesAndSavesOnCancel(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "n1.elss")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out, errOut output
	exit := make(chan int, 1)
	go func() {
		exit <- run(ctx, []string{"-node-id", "n1", "-addr", "127.0.0.1:0", "-snapshot", snap,
			"-sync-digest-interval", "50ms", "-gossip-interval", "50ms", "-sweep-interval", "50ms"}, &out, &errOut)
	}()

	listening := regexp.MustCompile(`elld node n1 listening on (\S+) `)
	var addr string
	for deadline := time.Now().Add(10 * time.Second); addr == ""; time.Sleep(5 * time.Millisecond) {
		if m := listening.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
		} else if time.Now().After(deadline) {
			t.Fatalf("never listened: stdout %q, stderr %q", out.String(), errOut.String())
		}
	}
	c, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.PFAdd("visits", "alice", "bob"); err != nil {
		t.Fatal(err)
	}
	// The tickers run: the gossip one is the one with a visible counter.
	ticked := regexp.MustCompile(`gossip_rounds=[1-9]`)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		stats, err := c.Do("CLUSTER", "STATS")
		if err != nil {
			t.Fatal(err)
		}
		if ticked.MatchString(stats) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the gossip ticker never fired: %s", stats)
		}
	}
	c.Close()

	cancel()
	select {
	case code := <-exit:
		if code != 0 {
			t.Errorf("exit %d after cancel, want 0; stderr %q", code, errOut.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after cancel")
	}
	if _, err := os.Stat(snap); err != nil {
		t.Errorf("no final snapshot: %v", err)
	}
	if !strings.Contains(out.String(), "saved 1 sketches to "+snap) {
		t.Errorf("stdout %q does not report the final snapshot", out.String())
	}
	if errOut.String() != "" {
		t.Errorf("a healthy run logged to stderr: %q", errOut.String())
	}
}
