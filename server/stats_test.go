package server

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"

	"exaloglog/internal/core"
)

// TestStatsReplyIsOneWireLine: the STATS body is multi-row (summary +
// one row per verb, newline-joined), so it is exactly the kind of reply
// writeRaw's newline folding exists for. Pipelining STATS and PING in
// one write pins the regression: if a newline leaked to the wire, the
// PING reply would land in the middle of the stats rows and every later
// reply on the connection would be off by one.
func TestStatsReplyIsOneWireLine(t *testing.T) {
	srv, c := startServer(t)
	// Traffic on several verbs makes the body genuinely multi-row.
	if _, err := c.PFAdd("sk", "a", "b"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PFCount("sk"); err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "STATS\nPING\n"); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	stats, err := r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	stats = strings.TrimSuffix(stats, "\n")
	if !strings.HasPrefix(stats, "+uptime_ms=") {
		t.Fatalf("STATS reply %q does not start with the summary row", stats)
	}
	if strings.Contains(stats, "\r") {
		t.Errorf("STATS reply %q carries an unfolded carriage return", stats)
	}
	// The rows survived the fold: split on "; " to get them back.
	if !strings.Contains(stats, "; verb=PFADD ") || !strings.Contains(stats, "; verb=PFCOUNT") {
		t.Errorf("folded STATS reply %q lacks the per-verb rows", stats)
	}
	ping, err := r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if ping != "+PONG\n" {
		t.Errorf("reply after STATS = %q, want +PONG — STATS leaked extra wire lines", ping)
	}
}

// TestStatsCountersAndReset pins the accounting semantics: exact call
// counts for serial traffic, -ERR replies counted as errors (including
// the unknown-verb bucket), bytes flowing both ways, histogram count
// matching the call counter at quiescence, and STATS RESET zeroing it
// all while the live connection gauge survives.
func TestStatsCountersAndReset(t *testing.T) {
	srv, c := startServer(t)
	const k = 10
	for i := 0; i < k; i++ {
		if _, err := c.PFAdd("key", fmt.Sprintf("el-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Do("PFCOUNT"); err == nil {
		t.Fatal("arity error did not surface")
	}
	if _, err := c.Do("BOGUS"); err == nil {
		t.Fatal("unknown verb did not surface as an error")
	}

	v := srv.Stats().Verb("PFADD")
	if v == nil {
		t.Fatal("no PFADD stats block")
	}
	if got := v.Calls(); got != k {
		t.Errorf("PFADD calls = %d, want %d", got, k)
	}
	if got := v.Hist().Count(); got != v.Calls() {
		t.Errorf("PFADD histogram holds %d samples for %d calls", got, v.Calls())
	}
	if in, out := v.Bytes(); in == 0 || out == 0 {
		t.Errorf("PFADD bytes in=%d out=%d, want both > 0", in, out)
	}
	if errs := v.Errs(); errs != 0 {
		t.Errorf("PFADD errs = %d, want 0", errs)
	}
	if pc := srv.Stats().Verb("PFCOUNT"); pc.Calls() != 1 || pc.Errs() != 1 {
		t.Errorf("PFCOUNT after arity failure: calls=%d errs=%d, want 1/1", pc.Calls(), pc.Errs())
	}
	if u := srv.Stats().Verb(unknownVerb); u.Calls() != 1 || u.Errs() != 1 {
		t.Errorf("unknown-verb bucket: calls=%d errs=%d, want 1/1", u.Calls(), u.Errs())
	}
	if cur, total := srv.Stats().Conns(); cur < 1 || total < 1 {
		t.Errorf("connection gauges cur=%d total=%d, want both ≥ 1", cur, total)
	}

	if reply, err := c.Do("STATS", "RESET"); err != nil || reply != "OK" {
		t.Fatalf("STATS RESET = %q, %v", reply, err)
	}
	if got := v.Calls(); got != 0 {
		t.Errorf("PFADD calls = %d after reset, want 0", got)
	}
	if got := v.Hist().Count(); got != 0 {
		t.Errorf("PFADD histogram holds %d samples after reset, want 0", got)
	}
	if cur, _ := srv.Stats().Conns(); cur < 1 {
		t.Error("reset cleared the live connection gauge")
	}
}

// TestStatsHammer is the race-mode stress for the stats core: workers
// hammer the three fast-path verbs over pipelined connections while one
// observer concurrently polls STATS and intermittently resets. Between
// the observer's own (serialized) resets every counter must be
// monotonic; once traffic quiesces, a final reset plus a known serial
// batch pins the "histograms never lose samples" invariant exactly.
func TestStatsHammer(t *testing.T) {
	srv, _ := startServer(t)
	const workers = 4
	const iters = 250
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := Dial(srv.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			p := c.Pipeline()
			pending := 0
			for i := 0; i < iters; i++ {
				key := fmt.Sprintf("hk-%d", i%13)
				el := fmt.Sprintf("el-%d-%d", w, i)
				p.PFAdd(key, el)
				p.Do("PFCOUNT", key)
				p.WAdd("w"+key, 1_750_000_000_000+int64(i), el)
				pending += 3
				if pending >= 48 {
					if _, err := p.Exec(); err != nil {
						t.Error(err)
						return
					}
					pending = 0
				}
			}
			if pending > 0 {
				if _, err := p.Exec(); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}

	stop := make(chan struct{})
	obsDone := make(chan struct{})
	go func() {
		defer close(obsDone)
		c, err := Dial(srv.Addr())
		if err != nil {
			t.Error(err)
			return
		}
		defer c.Close()
		verbs := []string{"PFADD", "PFCOUNT", "WADD"}
		prev := make(map[string]uint64, len(verbs))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// The wire poll runs concurrently with the worker traffic —
			// the actual race under test.
			if _, err := c.Do("STATS"); err != nil {
				t.Error(err)
				return
			}
			for _, verb := range verbs {
				v := srv.Stats().Verb(verb)
				if v == nil {
					continue // verb not dispatched yet
				}
				if calls := v.Calls(); calls < prev[verb] {
					t.Errorf("%s calls went backwards between resets: %d → %d", verb, prev[verb], calls)
					return
				} else {
					prev[verb] = calls
				}
			}
			if i%7 == 6 {
				if _, err := c.Do("STATS", "RESET"); err != nil {
					t.Error(err)
					return
				}
				clear(prev)
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-obsDone
	if t.Failed() {
		return
	}

	// Quiescent phase: no traffic in flight, so after this reset the
	// histogram and call counter of each verb must agree exactly.
	srv.Stats().Reset()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	p := c.Pipeline()
	const k = 32
	for i := 0; i < k; i++ {
		el := fmt.Sprintf("q-%d", i)
		p.PFAdd("qk", el)
		p.Do("PFCOUNT", "qk")
		p.WAdd("wqk", 1_750_000_000_000+int64(i), el)
	}
	if _, err := p.Exec(); err != nil {
		t.Fatal(err)
	}
	for _, verb := range []string{"PFADD", "PFCOUNT", "WADD"} {
		v := srv.Stats().Verb(verb)
		if got := v.Calls(); got != k {
			t.Errorf("%s calls = %d after quiescent batch, want %d", verb, got, k)
		}
		if got := v.Hist().Count(); got != v.Calls() {
			t.Errorf("%s histogram holds %d samples for %d calls — samples lost", verb, got, v.Calls())
		}
		if errs := v.Errs(); errs != 0 {
			t.Errorf("%s errs = %d, want 0", verb, errs)
		}
	}
}

// TestDispatchPFAddFastPathZeroAlloc guards the acceptance bar for the
// instrumentation: recording per-verb stats on the PFADD fast path must
// not cost an allocation — the stats pointer is cached in the registry
// entry and recording is a time.Now() pair plus atomic adds.
func TestDispatchPFAddFastPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is not meaningful under the race detector")
	}
	store, err := NewStore(core.RecommendedML(12))
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store)
	cc := newConnCtx(srv, nil, io.Discard)
	cc.exec([]byte("PFADD key el-warm\n")) // create the key and the scratch buffers
	lines := make([][]byte, 64)
	for i := range lines {
		lines[i] = []byte(fmt.Sprintf("PFADD key el-%d\n", i))
		// The guard is about the dispatch path: record every token now,
		// so the sparse value's array growth is not counted against it.
		cc.exec(lines[i])
	}
	i := 0
	avg := testing.AllocsPerRun(200, func() {
		cc.exec(lines[i%len(lines)])
		i++
	})
	if avg != 0 {
		t.Errorf("instrumented PFADD dispatch allocates %.2f per op, want 0", avg)
	}
	// The zero-alloc path was really measured, not skipped.
	if calls := srv.Stats().Verb("PFADD").Calls(); calls == 0 {
		t.Error("stats recorded no PFADD calls — instrumentation not on the fast path")
	}
}

// TestStatsQuantileBounds pins the histogram's read-out contract: the
// reported quantile is the upper bound of the sample's bucket, clamped
// to the observed maximum — at most a 2× overestimate, never an
// underestimate of the true quantile's bucket lower bound.
func TestStatsQuantileBounds(t *testing.T) {
	var h LatencyHist
	for i := 0; i < 99; i++ {
		h.Observe(100 * 1000) // 100µs → bucket (64µs, 128µs]
	}
	h.Observe(5 * 1000 * 1000) // one 5ms outlier
	if got := h.Count(); got != 100 {
		t.Fatalf("Count = %d, want 100", got)
	}
	p50 := h.Quantile(0.50)
	if us := p50.Microseconds(); us < 100 || us > 128 {
		t.Errorf("p50 = %dµs, want within (100, 128] for 100µs samples", us)
	}
	// The max clamp: p99.9 falls in the outlier's bucket, whose upper
	// bound (8192µs) exceeds the observed max — the max must win.
	if got, want := h.Quantile(0.999), h.Max(); got != want {
		t.Errorf("p99.9 = %v, want clamped to the observed max %v", got, want)
	}
	var empty LatencyHist
	if got := empty.Quantile(0.99); got != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", got)
	}
}
