package main

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"testing"

	"exaloglog/cluster"
	"exaloglog/internal/core"
)

// startNodes boots a two-node in-process cluster (replica factor 2).
func startNodes(t *testing.T) []*cluster.Node {
	t.Helper()
	var nodes []*cluster.Node
	for _, id := range []string{"n1", "n2"} {
		n, err := cluster.NewNode(id, core.RecommendedML(10), 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		if len(nodes) > 0 {
			if err := n.Join(nodes[0].Addr()); err != nil {
				t.Fatal(err)
			}
		}
		nodes = append(nodes, n)
	}
	return nodes
}

// invoke runs one ell-cluster invocation against addr.
func invoke(addr string, args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(append([]string{"-addr", addr}, args...), &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestRunAgainstTwoNodeCluster(t *testing.T) {
	nodes := startNodes(t)
	a, b := nodes[0].Addr(), nodes[1].Addr()

	code, out, errOut := invoke(a, "info")
	if code != 0 || !strings.Contains(out, "id=n1\n") || !strings.Contains(out, "nodes=2\n") || !strings.Contains(out, "replicas=2\n") {
		t.Errorf("info: exit %d, stdout %q, stderr %q", code, out, errOut)
	}

	m := nodes[1].Map()
	code, out, errOut = invoke(b, "map")
	if want := fmt.Sprintf("height      2\ndigest      %016x\nreplicas    2\n", m.Digest()); code != 0 || !strings.HasPrefix(out, want) ||
		!strings.Contains(out, "n1           "+a+" 1 in\n") || !strings.Contains(out, "n2           "+b+" 1 in\n") {
		t.Errorf("map: exit %d, stdout %q, stderr %q", code, out, errOut)
	}
	// Leaving an ID that is not in changes nothing and says so: the
	// reply carries the map's height and digest.
	if code, out, errOut = invoke(a, "leave", "ghost"); code != 0 || out != "OK "+m.Stamp()+"\n" {
		t.Errorf("leave: exit %d, stdout %q, stderr %q", code, out, errOut)
	}
	if code, out, errOut = invoke(a, "join", "a=b", "addr"); code != 1 || out != "" || !strings.Contains(errOut, `invalid node ID "a=b"`) {
		t.Errorf("join with a bad ID: exit %d, stdout %q, stderr %q", code, out, errOut)
	}

	// Written through one node, counted through the other.
	if code, out, errOut = invoke(a, "add", "visits", "alice", "bob", "carol"); code != 0 || out != "changed=true\n" {
		t.Errorf("add: exit %d, stdout %q, stderr %q", code, out, errOut)
	}
	if code, out, errOut = invoke(b, "count", "visits"); code != 0 || out != "3\n" {
		t.Errorf("count: exit %d, stdout %q, stderr %q", code, out, errOut)
	}

	code, out, errOut = invoke(a, "stats")
	if code != 0 || !strings.Contains(out, "node=n1 gossip_rounds=") || !strings.Contains(out, "verb=PFADD") {
		t.Errorf("stats: exit %d, stdout %q, stderr %q", code, out, errOut)
	}
	code, out, errOut = invoke(a, "stats", "all")
	if code != 0 || !strings.Contains(out, "node=n1 ") || !strings.Contains(out, "node=n2 ") {
		t.Errorf("stats all: exit %d, stdout %q, stderr %q", code, out, errOut)
	}
}

func TestRunUsageErrors(t *testing.T) {
	nodes := startNodes(t)
	for _, args := range [][]string{
		{"frobnicate"},   // unknown sub-command
		{},               // no sub-command
		{"add", "key"},   // too few arguments
		{"stats", "one"}, // bad argument
		{"sync"},         // retired: anti-entropy runs on the nodes' own tickers
		{"rebalance"},    // retired with it
	} {
		code, out, errOut := invoke(nodes[0].Addr(), args...)
		if code != 2 || out != "" || !strings.HasPrefix(errOut, "usage: ell-cluster ") {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 and the usage line", args, code, out, errOut)
		}
	}
}

func TestRunUnreachableAddr(t *testing.T) {
	// A port that was just free: listen, note the address, close.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	code, out, errOut := invoke(addr, "ping")
	if code == 0 || out != "" || !strings.HasPrefix(errOut, "ell-cluster: ") {
		t.Errorf("ping to a closed port: exit %d, stdout %q, stderr %q; want non-zero and a message on stderr", code, out, errOut)
	}
}
