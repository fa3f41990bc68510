package cluster_test

import (
	"fmt"
	"strconv"
	"time"

	"exaloglog"
	"exaloglog/cluster"
)

// Three in-process nodes hold every key on two of them. A write through any
// node reaches the owners, and a count through any node merges the owners'
// sketches, so every node answers the same, and the answer is the estimate
// of one sketch fed the whole stream: merging is commutative and idempotent
// (Section 1 of the paper). A windowed key counts over sliding time windows
// the same way, and a node that leaves hands its keys to the new owners.
func ExampleNode() {
	cfg := exaloglog.Config{T: 2, D: 20, P: 11}
	var nodes []*cluster.Node
	for i := 1; i <= 3; i++ {
		n, err := cluster.NewNode("n"+strconv.Itoa(i), cfg, 2)
		if err != nil {
			panic(err)
		}
		if err := n.Start("127.0.0.1:0"); err != nil {
			panic(err)
		}
		defer n.Close()
		if i > 1 {
			if err := n.Join(nodes[0].Addr()); err != nil {
				panic(err)
			}
		}
		nodes = append(nodes, n)
	}

	single := exaloglog.New(cfg.P)
	batch := make([]string, 0, 500)
	for e := 0; e < 10000; e++ {
		ip := fmt.Sprintf("10.0.%d.%d", e>>8&255, e&255)
		batch = append(batch, ip)
		single.AddString(ip)
		if len(batch) == cap(batch) {
			if _, err := nodes[0].Add("ips", batch...); err != nil {
				panic(err)
			}
			batch = batch[:0]
		}
	}
	for _, n := range nodes {
		est, err := n.Count("ips")
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s: ≈ %.0f distinct IPs, same as one sketch: %v\n", n.ID(), est, est == single.Estimate())
	}

	// The ports one source touched, 20 new ones a second for 30 s: a
	// 10-second window ending at the newest write sees the last 200.
	start := time.Date(2026, 7, 26, 12, 0, 0, 0, time.UTC).UnixMilli()
	for sec := 0; sec < 30; sec++ {
		ports := make([]string, 20)
		for i := range ports {
			ports[i] = "port-" + strconv.Itoa(sec*20+i)
		}
		if _, err := nodes[1].WindowAdd("ports:10.9.8.7", start+int64(sec)*1000, ports...); err != nil {
			panic(err)
		}
	}
	last10s, err := nodes[2].WindowCount("ports:10.9.8.7", 10*time.Second, 0)
	if err != nil {
		panic(err)
	}
	fmt.Printf("ports in the last 10 s: ≈ %.0f\n", last10s)

	if err := nodes[2].Leave(); err != nil {
		panic(err)
	}
	after, err := nodes[0].Count("ips")
	if err != nil {
		panic(err)
	}
	fmt.Println("unchanged after n3 left:", after == single.Estimate())
	// Output:
	// n1: ≈ 10063 distinct IPs, same as one sketch: true
	// n2: ≈ 10063 distinct IPs, same as one sketch: true
	// n3: ≈ 10063 distinct IPs, same as one sketch: true
	// ports in the last 10 s: ≈ 200
	// unchanged after n3 left: true
}
