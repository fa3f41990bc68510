package main

import (
	"errors"
	"fmt"
	"time"

	"exaloglog"
	"exaloglog/cluster"
	"exaloglog/server"
	"exaloglog/window"
)

const replicas = 2

// bootCluster starts n in-process nodes on loopback ports and joins them
// to the first. Nodes run no background tickers of their own (gossip and
// anti-entropy are driven by elld), so an idle cluster is idle.
func bootCluster(n int) ([]*cluster.Node, error) {
	var nodes []*cluster.Node
	for i := 0; i < n; i++ {
		node, err := startNode(fmt.Sprintf("n%d", i+1))
		if err != nil {
			closeNodes(nodes)
			return nil, err
		}
		nodes = append(nodes, node)
		if i > 0 {
			if err := node.Join(nodes[0].Addr()); err != nil {
				closeNodes(nodes)
				return nil, fmt.Errorf("join %s: %w", node.ID(), err)
			}
		}
	}
	return nodes, nil
}

func startNode(id string) (*cluster.Node, error) {
	node, err := cluster.NewNode(id, sketchConfig, replicas)
	if err != nil {
		return nil, err
	}
	if err := node.Start("127.0.0.1:0"); err != nil {
		return nil, fmt.Errorf("start %s: %w", id, err)
	}
	return node, nil
}

func closeNodes(nodes []*cluster.Node) {
	for _, n := range nodes {
		_ = n.Close() // teardown: a listener that is already gone is fine
	}
}

// shadow is the standalone server the ladder's wire and store rungs replay
// against: one Store behind one Server on loopback, no cluster around it.
type shadow struct {
	store *server.Store
	srv   *server.Server
	conns []*server.Client // one per client goroutine
}

func bootShadow() (*shadow, error) {
	store, err := server.NewStore(sketchConfig)
	if err != nil {
		return nil, err
	}
	srv := server.NewServer(store)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		return nil, err
	}
	s := &shadow{store: store, srv: srv}
	for i := 0; i < clients; i++ {
		conn, err := server.Dial(srv.Addr())
		if err != nil {
			s.close()
			return nil, err
		}
		s.conns = append(s.conns, conn)
	}
	return s, nil
}

func (s *shadow) close() {
	if s == nil {
		return
	}
	for _, c := range s.conns {
		_ = c.Close()
	}
	_ = s.srv.Close()
}

// resultErrors counts the failed commands of one pipelined batch.
func resultErrors(results []server.Result) int64 {
	var n int64
	for _, r := range results {
		if r.Err != nil {
			n++
		}
	}
	return n
}

// clientWork is what the closed-loop clients completed and how long each
// of them took over it, summed over timed stretches. A stretch ends for a
// client with its last answer, not at the nominal deadline, so the rate is
// a count over a measured time.
type clientWork struct {
	count   [clients]int64
	elapsed [clients]time.Duration
}

// done credits client cl with n more operations, the last answered at at,
// in a stretch that began at start.
func (w *clientWork) done(cl int, n int64, start, at time.Time) {
	w.count[cl] += n
	w.elapsed[cl] = at.Sub(start)
}

func (w *clientWork) add(o clientWork) {
	for cl := range w.count {
		w.count[cl] += o.count[cl]
		w.elapsed[cl] += o.elapsed[cl]
	}
}

func (w *clientWork) ops() int64 {
	var n int64
	for _, c := range w.count {
		n += c
	}
	return n
}

// rate is operations per second: every client's total over its own total
// time, summed over the clients.
func (w *clientWork) rate() float64 {
	r := 0.0
	for cl, n := range w.count {
		if w.elapsed[cl] > 0 {
			r += float64(n) / w.elapsed[cl].Seconds()
		}
	}
	return r
}

// runClients runs f(client) on the load-generating goroutines and waits
// for all of them.
func runClients(f func(client int) error) error {
	errs := make([]error, clients)
	done := make(chan struct{})
	for cl := 0; cl < clients; cl++ {
		go func(cl int) {
			errs[cl] = f(cl)
			done <- struct{}{}
		}(cl)
	}
	for cl := 0; cl < clients; cl++ {
		<-done
	}
	return errors.Join(errs...)
}

// scratch is one client's private values for the core and hashing rungs.
type scratch struct {
	sketch *exaloglog.Sketch
	acc    *exaloglog.Sketch
	ring   *window.Counter
	sink   uint64
	fsink  float64
}

func newScratch() (*scratch, error) {
	ring, err := window.New(sketchConfig, time.Second, 60)
	if err != nil {
		return nil, err
	}
	return &scratch{sketch: exaloglog.New(precision), acc: exaloglog.New(precision), ring: ring}, nil
}

// verifyCounts compares every reference value with the cluster's answer,
// asking the nodes in turn.
func verifyCounts(c *runCtx, workload string, nodes []*cluster.Node,
	plainRef map[string]*exaloglog.Sketch, winRef map[string]*window.Counter) error {
	bad, i := 0, 0
	detail := ""
	for key, ref := range plainRef {
		got, err := nodes[i%len(nodes)].Count(key)
		if err != nil {
			return err
		}
		if want := ref.Estimate(); got != want {
			bad++
			detail = fmt.Sprintf("; %s: cluster %.3f, reference %.3f", key, got, want)
		}
		i++
	}
	c.res.verify(workload+".oracle_plain", bad == 0, "%d of %d sampled keys differ from the reference sketch%s", bad, len(plainRef), detail)

	bad, detail = 0, ""
	end := clockBaseMillis + clockSpanMillis - 1
	for key, ref := range winRef {
		got, err := nodes[i%len(nodes)].WindowCount(key, time.Minute, int64(end))
		if err != nil {
			return err
		}
		if want := ref.Estimate(time.UnixMilli(int64(end)), time.Minute); got != want {
			bad++
			detail = fmt.Sprintf("; %s: cluster %.3f, reference %.3f", key, got, want)
		}
		i++
	}
	c.res.verify(workload+".oracle_window", bad == 0, "%d of %d sampled window keys differ from the reference ring%s", bad, len(winRef), detail)
	return nil
}
