package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// The system under test has no hooks, so a traced run measures layers from
// outside with a ladder: a sampled operation is first served by the cluster
// as usual (the client-observed time) and then replayed, from here, at each
// inner public boundary — Node call in process, round trip to a standalone
// server, Store call, bare sketch call, bare hash — against shadow
// instances that hold the same data. Each replay is one rung and one span.
//
// A layer's self time is its rung minus the next rung in. The client's own
// hop to the coordinator cannot be isolated that way (rung 0 contains all
// the others), so it is valued at what the same hop costs against the
// standalone server, wire − store, and whatever the client observed beyond
// "one hop + the Node call" is reported as unattributed: queueing behind the
// other client, scheduler hand-offs between the five parties sharing two
// cores, GC. A negative self time means the outer layer avoided the inner
// layer's work altogether (the store's estimate cache under pfcount_hot).

const (
	rungClient = iota // ClusterClient / Pipeline.Exec against the cluster
	rungNode          // Node.Add / Count / WindowAdd / WindowCount in process
	rungWire          // server.Client round trip to a standalone server.Server
	rungStore         // Store.AddBytes / Count / WindowAddBytes / WindowCount
	rungCore          // Sketch.Add / Estimate / Merge, window.Counter
	rungHash          // hashing.Wy64
	numRungs
)

var rungNames = [numRungs]string{"client", "node", "wire", "store", "core", "hashing"}

// traceSampling: one operation in this many is replayed down the ladder.
const traceSampling = 64

// maxSpans bounds the trace file; the sums keep counting past it.
const maxSpans = 1 << 18

type span struct {
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// rungSums accumulates the rungs of one operation class.
type rungSums struct {
	ns   [numRungs]int64
	ops  int64 // sampled operations
	cmds int64 // commands they carried (32 per write batch, else 1)
}

// ladder is one goroutine's trace state; ladders are merged when the
// clients have stopped. The zero epoch is shared so spans line up.
type ladder struct {
	epoch  time.Time
	nextOp uint64
	stride uint64
	spans  []span
	sums   map[string]*rungSums
}

// newLadder returns the trace state of client number client of clients;
// operation ids interleave so they stay unique after the merge.
func newLadder(epoch time.Time, client, clients int) *ladder {
	return &ladder{epoch: epoch, nextOp: uint64(client), stride: uint64(clients), sums: make(map[string]*rungSums)}
}

// newLadders returns one ladder per client, sharing an epoch.
func newLadders() []*ladder {
	epoch := time.Now()
	ls := make([]*ladder, clients)
	for cl := range ls {
		ls[cl] = newLadder(epoch, cl, clients)
	}
	return ls
}

// mergeLadders folds the clients' ladders into the first, once the clients
// have stopped.
func mergeLadders(ls []*ladder) *ladder {
	for _, l := range ls[1:] {
		ls[0].merge(l)
	}
	return ls[0]
}

// opTrace is one sampled operation on its way down the ladder.
type opTrace struct {
	l     *ladder
	id    uint64
	class string
	cmds  int
	d     [numRungs]time.Duration
}

func (l *ladder) begin(class string, cmds int) *opTrace {
	id := l.nextOp
	l.nextOp += l.stride
	return &opTrace{l: l, id: id, class: class, cmds: cmds}
}

// rung records one replay. Rungs run one after another, not nested in
// time; parent names the rung that would enclose this one in the live path.
func (o *opTrace) rung(r int, start, end time.Time) {
	o.d[r] += end.Sub(start)
	if len(o.l.spans) >= maxSpans {
		return
	}
	s := span{Op: o.id, Name: o.class + "/" + rungNames[r],
		Start: start.Sub(o.l.epoch).Nanoseconds(), End: end.Sub(o.l.epoch).Nanoseconds()}
	if r > 0 {
		s.Parent = o.class + "/" + rungNames[r-1]
	}
	o.l.spans = append(o.l.spans, s)
}

func (o *opTrace) end() {
	s := o.l.sums[o.class]
	if s == nil {
		s = &rungSums{}
		o.l.sums[o.class] = s
	}
	for r, d := range o.d {
		s.ns[r] += d.Nanoseconds()
	}
	s.ops++
	s.cmds += int64(o.cmds)
}

// phase records a single-layer phase (lib-sketch, many-keys) as one span.
func (l *ladder) phase(name string, start, end time.Time) {
	l.spans = append(l.spans, span{Op: l.nextOp, Name: name,
		Start: start.Sub(l.epoch).Nanoseconds(), End: end.Sub(l.epoch).Nanoseconds()})
	l.nextOp += l.stride
}

func (l *ladder) merge(o *ladder) {
	l.spans = append(l.spans, o.spans...)
	for class, s := range o.sums {
		t := l.sums[class]
		if t == nil {
			t = &rungSums{}
			l.sums[class] = t
		}
		for r := range s.ns {
			t.ns[r] += s.ns[r]
		}
		t.ops += s.ops
		t.cmds += s.cmds
	}
}

// total folds every class into one, weighting by commands.
func (l *ladder) total() *rungSums {
	t := &rungSums{}
	for _, s := range l.sums {
		for r := range s.ns {
			t.ns[r] += s.ns[r]
		}
		t.ops += s.ops
		t.cmds += s.cmds
	}
	return t
}

// budgetRow is one line of the budget table, in microseconds per command.
type budgetRow struct {
	Layer string  `json:"layer"`
	Us    float64 `json:"us"`
}

type budget struct {
	Class        string      `json:"class"`
	Sampled      int64       `json:"sampled_ops"`
	ObservedUs   float64     `json:"client_observed_us"`
	Rows         []budgetRow `json:"rows"`
	Unattributed float64     `json:"unattributed_us"`
}

// budget turns rung sums into the per-command table. By construction
// Σ rows + unattributed = client-observed.
func (s *rungSums) budget(class string) budget {
	var r [numRungs]float64
	if s.cmds > 0 {
		for i, ns := range s.ns {
			r[i] = float64(ns) / float64(s.cmds) / 1e3
		}
	}
	hop := r[rungWire] - r[rungStore]
	return budget{
		Class: class, Sampled: s.ops, ObservedUs: r[rungClient],
		Rows: []budgetRow{
			{"client", hop},
			{"node", r[rungNode] - r[rungWire]},
			{"wire", hop},
			{"store", r[rungStore] - r[rungCore]},
			{"core", r[rungCore] - r[rungHash]},
			{"hashing", r[rungHash]},
		},
		Unattributed: r[rungClient] - r[rungNode] - hop,
	}
}

// budgets returns one table per class (sorted by name) and the total last.
func (l *ladder) budgets() []budget {
	classes := make([]string, 0, len(l.sums))
	for c := range l.sums {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	out := make([]budget, 0, len(classes)+1)
	for _, c := range classes {
		out = append(out, l.sums[c].budget(c))
	}
	return append(out, l.total().budget("all"))
}

func printBudgets(w io.Writer, workload string, bs []budget) {
	for _, b := range bs {
		fmt.Fprintf(w, "budget %s/%s  sampled=%d  client_observed=%.2fus", workload, b.Class, b.Sampled, b.ObservedUs)
		for _, row := range b.Rows {
			fmt.Fprintf(w, "  %s=%.2f", row.Layer, row.Us)
		}
		fmt.Fprintf(w, "  unattributed=%.2f\n", b.Unattributed)
	}
}

type traceFile struct {
	Workload string   `json:"workload"`
	Seed     uint64   `json:"seed"`
	Budgets  []budget `json:"budgets,omitempty"`
	Spans    []span   `json:"spans"`
}

func (l *ladder) write(dir, workload string, seed uint64) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, workload+".trace.json"))
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	tf := traceFile{Workload: workload, Seed: seed, Spans: l.spans}
	if len(l.sums) > 0 {
		tf.Budgets = l.budgets()
	}
	return json.NewEncoder(f).Encode(tf)
}
