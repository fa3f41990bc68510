package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestBudgetRowsPlusUnattributedEqualObserved(t *testing.T) {
	// One sampled batch of 32 commands. Rungs, outermost first, in µs per
	// batch: client 900, node 640, wire 96, store 32, core 16, hashing 3.2.
	epoch := time.Unix(1_700_000_000, 0)
	l := newLadder(epoch, 0, 2)
	o := l.begin("write_batch", 32)
	at := epoch
	for r, us := range []float64{900, 640, 96, 32, 16, 3.2} {
		end := at.Add(time.Duration(us * float64(time.Microsecond)))
		o.rung(r, at, end)
		at = end
	}
	o.end()

	b := l.budgets()[0]
	want := map[string]float64{ // per command
		"client":  (96 - 32) / 32.0,
		"node":    (640 - 96) / 32.0,
		"wire":    (96 - 32) / 32.0,
		"store":   (32 - 16) / 32.0,
		"core":    (16 - 3.2) / 32.0,
		"hashing": 3.2 / 32.0,
	}
	sum := b.Unattributed
	for _, row := range b.Rows {
		if math.Abs(row.Us-want[row.Layer]) > 1e-9 {
			t.Errorf("%s self time %v, want %v", row.Layer, row.Us, want[row.Layer])
		}
		sum += row.Us
	}
	if math.Abs(b.ObservedUs-900/32.0) > 1e-9 {
		t.Errorf("observed %v", b.ObservedUs)
	}
	if math.Abs(sum-b.ObservedUs) > 1e-9*b.ObservedUs {
		t.Errorf("rows + unattributed = %v, client-observed = %v", sum, b.ObservedUs)
	}
	if wantU := (900 - 640 - (96 - 32)) / 32.0; math.Abs(b.Unattributed-wantU) > 1e-9 {
		t.Errorf("unattributed %v, want %v", b.Unattributed, wantU)
	}
}

func TestLadderMergeKeepsOpsApartAndSumsClasses(t *testing.T) {
	epoch := time.Unix(1_700_000_000, 0)
	a, b := newLadder(epoch, 0, 2), newLadder(epoch, 1, 2)
	for _, l := range []*ladder{a, b} {
		for i := 0; i < 3; i++ {
			o := l.begin("wcount", 1)
			o.rung(rungClient, epoch, epoch.Add(10*time.Microsecond))
			o.rung(rungNode, epoch, epoch.Add(8*time.Microsecond))
			o.end()
		}
	}
	o := b.begin("union8", 1)
	o.rung(rungClient, epoch, epoch.Add(40*time.Microsecond))
	o.end()
	a.merge(b)

	seen := map[uint64]string{} // operation id -> class
	for _, s := range a.spans {
		class, _, _ := strings.Cut(s.Name, "/")
		if prev, dup := seen[s.Op]; dup && prev != class {
			t.Errorf("op %d shared by %s and %s", s.Op, prev, class)
		}
		seen[s.Op] = class
		if s.Name == "wcount/node" && s.Parent != "wcount/client" {
			t.Errorf("parent of %s is %q", s.Name, s.Parent)
		}
	}
	if len(seen) != 7 {
		t.Errorf("%d distinct operations, want 7", len(seen))
	}
	if got := a.sums["wcount"].ops; got != 6 {
		t.Errorf("wcount sampled %d times", got)
	}
	bs := a.budgets()
	if len(bs) != 3 || bs[2].Class != "all" || bs[2].Sampled != 7 {
		t.Fatalf("budgets: %+v", bs)
	}
	// all: (6·10 + 40) µs over 7 commands.
	if math.Abs(bs[2].ObservedUs-100.0/7) > 1e-9 {
		t.Errorf("total observed %v", bs[2].ObservedUs)
	}
}

func TestTraceFileRoundTrip(t *testing.T) {
	epoch := time.Unix(1_700_000_000, 0)
	l := newLadder(epoch, 0, 1)
	l.phase("lib/insert", epoch.Add(time.Millisecond), epoch.Add(3*time.Millisecond))
	dir := t.TempDir()
	if err := l.write(dir, "lib-sketch", 7); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "lib-sketch.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	if tf.Seed != 7 || len(tf.Spans) != 1 || tf.Spans[0].Start != 1e6 || tf.Spans[0].End != 3e6 {
		t.Errorf("%+v", tf)
	}
}
