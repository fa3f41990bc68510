package cluster

import (
	"bufio"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"exaloglog/server"
)

// frontEndScript is a seeded run of every public data verb as raw command
// lines: writes on both sides of break-even, windowed writes, one-key and
// multi-key reads, the window and lifecycle verbs, PFMERGE, DEL and KEYS, a
// few refusals — and then every verb's five forms (verbForms), on a plain
// key p and a windowed key w. Multi-key PFCOUNTs and PFMERGEs unite sparse
// keys into a sparse union (s: below break-even, though their tokens
// counted with repeats pass it) and into a dense one (b).
func frontEndScript() []string {
	r := rand.New(rand.NewSource(31))
	const ts0 = int64(1_750_000_000_000)
	sizes := []int{1, 2, 5, 40, 300, 5000}
	var script []string
	add := func(lines ...string) {
		for _, l := range lines {
			if l != "" {
				script = append(script, l)
			}
		}
	}
	elements := func(n, pool int) string {
		els := make([]string, n)
		for j := range els {
			els[j] = fmt.Sprintf("e%d", r.Intn(pool))
		}
		return strings.Join(els, " ")
	}
	for i := 0; i < 60; i++ {
		els := elements(sizes[r.Intn(len(sizes))], 1<<20)
		key := fmt.Sprintf("p%d", r.Intn(6))
		if i%3 == 2 {
			key = fmt.Sprintf("w%d", r.Intn(3))
			add(fmt.Sprintf("WADD %s %d %s", key, ts0+int64(r.Intn(120_000)), els), "WCOUNT "+key+" 1m")
			continue
		}
		add("PFADD "+key+" "+els, "PFCOUNT "+key)
	}
	add("PFCOUNT p0 p1 p2", "PFCOUNT p3 nowhere")
	for _, k := range []string{"s1", "s2", "s3"} {
		add("PFADD " + k + " " + elements(5000, 8000))
	}
	for _, k := range []string{"b1", "b2", "b3"} {
		add("PFADD " + k + " " + elements(4000, 1<<20))
	}
	add("PFCOUNT s1 s2 s3", "PFMERGE ms s1 s2 s3", "PFCOUNT ms", "PFCOUNT ms s2",
		"PFCOUNT b1 b2 b3", "PFMERGE mb b1 b2 b3", "PFCOUNT mb", "PFCOUNT mb b2", "PFCOUNT mb ms")
	add("WCOUNT w0 30s", "WCOUNT w1 2m 1750000060000", "WINFO w2",
		"PFMERGE m p0 p3", "PFCOUNT m",
		"EXPIRE p1 100", "TTL p1", "PERSIST p1", "TTL p1", "PERSIST p1",
		"DEL p4", "DEL p4", "PFCOUNT p4", "KEYS",
		"WCOUNT w0 0s", "EXPIRE p0 0", "TTL a b", "WINFO a b", "DEL a b",
		"PFADD p a b c", "WADD w 1750000000000 a b")
	for _, v := range verbForms {
		add(v.valid, v.arity, v.bad, v.wrongType, v.missing)
	}
	return script
}

// verbForms is every public data verb in five forms, run in this order on
// a keyspace where p is a plain key and w a windowed one: a valid command,
// an arity error, a bad argument, the key of the other type and a missing
// key ("" where a verb has no such form).
var verbForms = []struct{ valid, arity, bad, wrongType, missing string }{
	{"PFADD p d", "PFADD p", "", "PFADD w x", "PFADD fresh x"},
	{"PFCOUNT p", "PFCOUNT", "", "PFCOUNT w", "PFCOUNT nowhere"},
	{"PFMERGE m p", "PFMERGE m", "", "PFMERGE m w", "PFMERGE m2 nowhere"},
	{"WADD w 1750000009000 c", "WADD w 1", "WADD w soon x", "WADD p 1750000000000 x", "WADD w2 1750000000000 x"},
	{"WCOUNT w 30s 0", "WCOUNT w", "WCOUNT w 30s later", "WCOUNT p 30s", "WCOUNT nowhere 30s"},
	{"WINFO w", "WINFO", "", "WINFO p", "WINFO nowhere"},
	{"EXPIRE p 100", "EXPIRE p", "EXPIRE p x", "EXPIRE w 100", "EXPIRE nowhere 5"},
	{"PEXPIRE p 100000", "PEXPIRE p", "PEXPIRE p -1", "PEXPIRE w 100000", "PEXPIRE nowhere 5"},
	{"TTL p", "TTL", "", "TTL w", "TTL nowhere"},
	{"PERSIST p", "PERSIST", "", "PERSIST w", "PERSIST nowhere"},
	{"DEL fresh", "DEL", "", "DEL w2", "DEL nowhere"},
	{"KEYS", "", "", "", ""},
}

// runScript sends line i to addrs[i%len(addrs)] and returns the reply
// lines as the wire carried them.
func (h *harness) runScript(script []string, addrs []string) []string {
	h.t.Helper()
	type conn struct {
		c net.Conn
		r *bufio.Reader
	}
	conns := make([]conn, len(addrs))
	for i, addr := range addrs {
		c := h.conn(addr)
		conns[i] = conn{c, bufio.NewReaderSize(c, 1<<16)}
	}
	replies := make([]string, len(script))
	for i, l := range script {
		c := conns[i%len(conns)]
		if _, err := io.WriteString(c.c, l+"\n"); err != nil {
			h.t.Fatal(err)
		}
		reply, err := c.r.ReadString('\n')
		if err != nil {
			h.t.Fatalf("%q: %v", l, err)
		}
		replies[i] = reply
	}
	return replies
}

// TestEveryVerbAnswersAlikeInBothModes: the public data verbs are one front
// end, so a standalone server, a 1-node cluster and every coordinator of a
// 3-node, replica-2 cluster answer the script with the same bytes — counts,
// accepted counts, changed bits, TTLs, WINFO lines, key lists, the refusals
// of malformed commands, the type mismatches and the missing keys: one
// grammar, one set of error texts, and one meaning of WCOUNT's ts (0: the
// key's newest timestamp). The clusters' replies are pinned too, as they
// were when each cluster verb had a string handler of its own; the pin
// leaves out the errors, some of whose texts (EXPIRE's, PEXPIRE's and the
// type mismatches') became the standalone ones.
func TestEveryVerbAnswersAlikeInBothModes(t *testing.T) {
	t.Parallel()
	script := frontEndScript()
	store, err := server.NewStore(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv := server.NewServer(store)
	h := newHarness(t, harnessOpts{})
	h.serve(srv)
	standalone := h.runScript(script, []string{srv.Addr()})

	const pin = "ec838ffb04f60f7b1d3eb5ed9356ace912956cf586f6296b0f5f476b1f585825"
	for _, tc := range []struct{ nodes, replicas int }{{1, 1}, {3, 2}} {
		t.Run(fmt.Sprintf("%dnodes-r%d", tc.nodes, tc.replicas), func(t *testing.T) {
			h := newHarness(t, harnessOpts{nodes: tc.nodes, replicas: tc.replicas})
			var addrs []string
			for _, n := range h.running() {
				addrs = append(addrs, n.Addr())
			}
			clustered := h.runScript(script, addrs)
			sum := sha256.New()
			for i, l := range script {
				s, c := standalone[i], clustered[i]
				if s != c {
					t.Errorf("%.60q: standalone %q, cluster %q", l, s, c)
				}
				if c[0] != '-' {
					fmt.Fprintf(sum, "%s\n%s", l, c)
				}
			}
			if got := hex.EncodeToString(sum.Sum(nil)); got != pin {
				t.Errorf("cluster replies hash to %s, want %s", got, pin)
			}
		})
	}
}

// TestNodeDispatchAllocs: a routed PFADD or WADD allocates no more with 32
// elements than with 2 but one, on either cluster of BenchmarkNodeDispatch:
// the argument slots of a line that outgrew the connection's idle array and
// arrived alone. Nothing else grows with the elements: they are hashed
// where they lie, not made into strings. And every case allocates at most
// its ceiling on this fabric, both ends of a hop counted: on the 2-node
// cluster a write forwards one MLADD on the caller's goroutine and a count
// gathers both copies.
func TestNodeDispatchAllocs(t *testing.T) {
	// Serial: testing.AllocsPerRun counts the allocations of every goroutine.
	if raceEnabled {
		t.Skip("allocation counting is not meaningful under the race detector")
	}
	ceilings := map[string]float64{
		"1node/PFAdd/2": 6, "1node/PFAdd/32": 7, "1node/WAdd/2": 6, "1node/WAdd/32": 7, "1node/PFCount": 15,
		"2node/PFAdd/2": 16, "2node/PFAdd/32": 17, "2node/WAdd/2": 16, "2node/WAdd/32": 17, "2node/PFCount": 40,
	}
	allocs := make(map[string]float64)
	for _, tc := range nodeDispatchCases() {
		node := newHarness(t, harnessOpts{nodes: tc.nodes, replicas: tc.nodes}).node("n1")
		tc.setup(t, node)
		line := []byte(tc.line)
		node.Server().ServeStream(&streamOf{line: line, n: 2}, io.Discard)
		const n = 100
		allocs[tc.name] = testing.AllocsPerRun(10, func() {
			node.Server().ServeStream(&streamOf{line: line, n: n}, io.Discard)
		}) / n
		if got, ceiling := allocs[tc.name], ceilings[tc.name]; got > ceiling+0.1 {
			t.Errorf("%s: %.2f allocations per command, want at most %.0f", tc.name, got, ceiling)
		}
	}
	t.Logf("allocations per command: %v", allocs)
	for _, verb := range []string{"1node/PFAdd", "1node/WAdd", "2node/PFAdd", "2node/WAdd"} {
		if two, many := allocs[verb+"/2"], allocs[verb+"/32"]; many > two+1.05 {
			t.Errorf("%s: %.2f allocations per command with 32 elements, %.2f with 2: want one more at most", verb, many, two)
		}
	}
}

// TestUnstartedNodeRefusesDataVerbs: before Start a node's map is empty —
// it knows no member and owns no key — so every data verb refuses with the
// same error, the reads, DEL and KEYS as much as the writes, rather than
// answering as if the cluster were empty.
func TestUnstartedNodeRefusesDataVerbs(t *testing.T) {
	t.Parallel()
	n, err := NewNode("n1", testConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	errs := make(map[string]error)
	_, errs["Add"] = n.Add("k", "x")
	_, errs["WindowAdd"] = n.WindowAdd("w", 1_750_000_000_000, "x")
	_, errs["Count"] = n.Count("k")
	_, errs["WindowCount"] = n.WindowCount("w", time.Minute, 0)
	_, errs["WindowInfo"] = n.WindowInfo("w")
	errs["MergeKeys"] = n.MergeKeys("m", "k")
	_, errs["Del"] = n.Del("k")
	_, errs["ExpireAt"] = n.ExpireAt("k", 1_750_000_000_000)
	_, _, errs["Deadline"] = n.Deadline("k")
	_, errs["Persist"] = n.Persist("k")
	_, errs["AllKeys"] = n.AllKeys()
	for verb, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "node not started") {
			t.Errorf("%s on an unstarted node: %v, want the empty-map error", verb, err)
		}
	}
}

// TestClusterVerbForms runs every CLUSTER subverb of the registry in its
// forms on a 1-node cluster: a wrong argument count gets the entry's usage
// text, a bad argument its refusal ("" where a verb has no such form), and
// a valid command its normal reply. No refused form creates a key or puts
// the connection out of step, and afterwards each subverb has a stats row
// of its own — in STATS and in the Prometheus text — beside the CLUSTER row
// the bare verb and an unknown subverb record into.
func TestClusterVerbForms(t *testing.T) {
	t.Parallel()
	h := newHarness(t, harnessOpts{nodes: 1, replicas: 1})
	n := h.node("n1")
	m := n.Map()
	h8t := fmt.Sprintf("h=%d", m.Height())
	d := fmt.Sprintf("d=%016x", m.Digest())
	frame := base64.StdEncoding.EncodeToString(server.EncodeFrame([]server.KeyBlob{{Key: "framed", Blob: denseBlob(t, "y")}}))
	forms := []struct{ sub, arity, bad, badWant, valid, validWant string }{
		{"INFO", "CLUSTER INFO x", "", "", "CLUSTER INFO", "+id=n1 addr=" + n.Addr() + " "},
		{"MAP", "CLUSTER MAP x", "", "", "CLUSTER MAP", "+" + m.Encode() + "\n"},
		{"JOIN", "CLUSTER JOIN n9", "CLUSTER JOIN a=b addr", `-ERR invalid node ID "a=b"`, "CLUSTER JOIN n1 " + n.Addr(), "+OK " + m.Stamp() + "\n"},
		{"LEAVE", "CLUSTER LEAVE", "", "", "CLUSTER LEAVE ghost", "+OK " + m.Stamp() + "\n"},
		{"SETMAP", "", "CLUSTER SETMAP v9", "-ERR cluster: ", "CLUSTER SETMAP " + m.Encode(), "+OK\n"},
		{"DSUM", "CLUSTER DSUM n1", "CLUSTER DSUM n1 d=soon", "-ERR bad map digest \"d=soon\" (want d=<hex>)\n", "CLUSTER DSUM n1 " + d, "+"},
		{"DKEYS", "CLUSTER DKEYS n1 " + d, "CLUSTER DKEYS n1 " + d + " 0,999", `-ERR bad shard index "999"`, "CLUSTER DKEYS n1 " + d + " 0,1", "+"},
		{"GOSSIP", "", "CLUSTER GOSSIP g2 n9", "-ERR cluster: gossip digest needs", "CLUSTER GOSSIP g2 n9 " + d[2:], "+g2 n1 "},
		{"HEALTH", "CLUSTER HEALTH x", "", "", "CLUSTER HEALTH", "+round="},
		{"STATS", "CLUSTER STATS ALL x", "CLUSTER STATS BOGUS", clusterStatsUsage + "\n", "CLUSTER STATS", "+node=n1 "},
		{"LDEL", "CLUSTER LDEL", "", "", "CLUSTER LDEL nowhere", ":0\n"},
		{"LEXPIREAT", "CLUSTER LEXPIREAT p", "CLUSTER LEXPIREAT p soon", `-ERR bad CLUSTER LEXPIREAT deadline "soon"`, "CLUSTER LEXPIREAT p 4102444800000", ":1\n"},
		{"LDEADLINE", "CLUSTER LDEADLINE", "", "", "CLUSTER LDEADLINE p", ":4102444800000\n"},
		{"LPERSIST", "CLUSTER LPERSIST", "", "", "CLUSTER LPERSIST p", ":1\n"},
		{"LKEYS", "CLUSTER LKEYS x", "", "", "CLUSTER LKEYS", "+p\n"},
		{"MLADD", "CLUSTER MLADD p k", "CLUSTER MLADD w k soon 1 x", `-ERR bad CLUSTER MLADD timestamp "soon"`, "CLUSTER MLADD p mladded " + batchB64(t, "z"), ":1\n"},
		{"XFER", "CLUSTER XFER FRAME " + h8t, "CLUSTER XFER FRAME " + h8t + " !!!!", "-ERR xfer: bad base64: ", "CLUSTER XFER FRAME " + h8t + " " + frame, "+OK\n"},
	}
	usage := map[string]string{}
	for _, v := range clusterVerbs {
		usage[v.sub] = v.usage
	}
	if len(forms) != len(usage) {
		t.Errorf("%d subverbs registered, %d with forms here", len(usage), len(forms))
	}

	conn := h.conn(n.Addr())
	r := bufio.NewReader(conn)
	send := func(line string) string {
		t.Helper()
		if _, err := io.WriteString(conn, line+"\n"); err != nil {
			t.Fatal(err)
		}
		reply, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("%.60q: %v", line, err)
		}
		return reply
	}
	expect := func(line, want string) {
		t.Helper()
		if got := send(line); !strings.HasPrefix(got, want) {
			t.Errorf("%.80q answered %q, want %q", line, got, want)
		}
	}
	expect("PFADD p a", ":1\n")
	calls, errs := map[string]uint64{}, map[string]uint64{}
	for _, f := range forms {
		want, ok := usage[f.sub]
		if !ok {
			t.Errorf("CLUSTER %s has forms here but is not registered", f.sub)
		}
		for _, refused := range []struct{ line, want string }{{f.arity, want + "\n"}, {f.bad, f.badWant}} {
			if refused.line == "" {
				continue
			}
			expect(refused.line, refused.want)
			calls[f.sub]++
			errs[f.sub]++
			if got := n.Store().Len(); got != 1 {
				t.Errorf("%.80q left %d keys, want 1", refused.line, got)
			}
			expect("PING", "+PONG\n")
		}
	}
	for _, f := range forms {
		expect(f.valid, f.validWant)
		calls[f.sub]++
	}
	expect("CLUSTER", "-ERR CLUSTER needs a subcommand\n")
	expect("cluster bogus", "-ERR unknown CLUSTER subcommand BOGUS\n")

	stats := strings.Split(send("STATS"), "; ")
	var metrics strings.Builder
	n.Server().WriteMetrics(&metrics)
	row := func(verb string) string {
		for _, r := range stats {
			if strings.HasPrefix(r, "verb="+verb+" ") {
				return r
			}
		}
		return ""
	}
	for _, f := range forms {
		verb := "CLUSTER." + f.sub
		if want := fmt.Sprintf("verb=%s calls=%d errs=%d ", verb, calls[f.sub], errs[f.sub]); !strings.HasPrefix(row(verb), want) {
			t.Errorf("STATS row %q, want %q...", row(verb), want)
		}
		if !strings.Contains(metrics.String(), fmt.Sprintf("ell_verb_calls_total{verb=%q} %d\n", verb, calls[f.sub])) {
			t.Errorf("/metrics lacks %s's calls", verb)
		}
	}
	if got := row("CLUSTER"); !strings.HasPrefix(got, "verb=CLUSTER calls=2 errs=2 ") {
		t.Errorf("CLUSTER row %q, want the bare verb and the unknown subverb alone", got)
	}
}
