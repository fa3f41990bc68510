package main

import (
	"bytes"
	"context"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"exaloglog/cluster"
	"exaloglog/internal/core"
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

// TestRunUsageAndStartupErrors: a usage error is exit 2, a refused start
// exit 1, and neither serves. Its context is cancelled up front, so a run
// that wrongly starts serving returns at once with exit 0.
func TestRunUsageAndStartupErrors(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		args   []string
		code   int
		stderr string
	}{
		{[]string{"-no-such-flag"}, 2, "flag provided but not defined"},
		{[]string{"-addr", "127.0.0.1:0", "-xfer-batch", "64"}, 2, "flag provided but not defined: -xfer-batch"},
		{[]string{"-addr", "127.0.0.1:0", "-xfer-window", "8"}, 2, "flag provided but not defined: -xfer-window"},
		{[]string{"-addr", "127.0.0.1:0", "-suspect-after", "5"}, 2, "flag provided but not defined: -suspect-after"},
		// Eviction drains down to -mem-low: a high watermark alone would
		// evict every key.
		{[]string{"-mem-high", "5000", "-addr", "127.0.0.1:0"}, 1, "-mem-high and -mem-low go together, 0 < -mem-low <= -mem-high"},
		{[]string{"-mem-high", "5000", "-mem-low", "6000", "-addr", "127.0.0.1:0"}, 1, "-mem-high and -mem-low go together, 0 < -mem-low <= -mem-high"},
		{[]string{"-mem-high", "5000", "-mem-low", "-1", "-node-id", "n1", "-addr", "127.0.0.1:0"}, 1, "-mem-high and -mem-low go together, 0 < -mem-low <= -mem-high"},
		{[]string{"-mem-low", "100", "-addr", "127.0.0.1:0"}, 1, "-mem-high and -mem-low go together, 0 < -mem-low <= -mem-high"},
		{[]string{"-mem-low", "100", "-node-id", "n1", "-addr", "127.0.0.1:0"}, 1, "-mem-high and -mem-low go together, 0 < -mem-low <= -mem-high"},
	} {
		var out, errOut bytes.Buffer
		code := run(ctx, tc.args, &out, &errOut)
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

// TestRunJoinsACluster: -join enters the cluster a node already serves,
// and the joined line names the map it joined — its height and digest,
// which the seed then holds too.
func TestRunJoinsACluster(t *testing.T) {
	seed, err := cluster.NewNode("n1", core.RecommendedML(12), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer seed.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out, errOut output
	exit := make(chan int, 1)
	go func() {
		exit <- run(ctx, []string{"-node-id", "n2", "-addr", "127.0.0.1:0", "-join", seed.Addr(),
			"-gossip-interval", "0", "-sync-digest-interval", "0", "-sweep-interval", "0"}, &out, &errOut)
	}()
	joined := regexp.MustCompile(`joined cluster via \S+ \(map (h=\d+ d=[0-9a-f]{16}), 2 nodes\)\n`)
	var stamp string
	for deadline := time.Now().Add(10 * time.Second); stamp == ""; time.Sleep(5 * time.Millisecond) {
		if m := joined.FindStringSubmatch(out.String()); m != nil {
			stamp = m[1]
		} else if time.Now().After(deadline) {
			t.Fatalf("never joined: stdout %q, stderr %q", out.String(), errOut.String())
		}
	}
	if want := seed.Map().Stamp(); stamp != want || !strings.HasPrefix(stamp, "h=2 ") {
		t.Errorf("joined line names map %s, the seed holds %s", stamp, want)
	}
	cancel()
	if code := <-exit; code != 0 {
		t.Errorf("exit %d after cancel, want 0; stderr %q", code, errOut.String())
	}
}

// TestUsageNamesEveryFlag: the usage block of the package doc names
// exactly the flags run registers, so the doc cannot keep a flag that is
// gone or miss one that was added.
func TestUsageNamesEveryFlag(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	_, block, ok := strings.Cut(f.Doc.Text(), "Usage:\n\n")
	if !ok {
		t.Fatal("the package doc has no Usage block")
	}
	block, _, _ = strings.Cut(block, "\n\n")
	documented := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?:^|[\s\[])-([a-z][a-z-]*)`).FindAllStringSubmatch(block, -1) {
		documented[m[1]] = true
	}

	// -h makes run print every flag it registers and exit 2.
	var out, errOut bytes.Buffer
	if code := run(context.Background(), []string{"-h"}, &out, &errOut); code != 2 {
		t.Fatalf("-h: exit %d, want 2", code)
	}
	registered := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^  -(\S+)`).FindAllStringSubmatch(errOut.String(), -1) {
		registered[m[1]] = true
	}
	if len(registered) == 0 {
		t.Fatalf("no flags in the -h output %q", errOut.String())
	}
	for name := range registered {
		if !documented[name] {
			t.Errorf("flag -%s is registered but not in the usage block", name)
		}
	}
	for name := range documented {
		if !registered[name] {
			t.Errorf("the usage block names -%s, which run does not register", name)
		}
	}
}
