// Command ell-cluster administers a sketch cluster (see the cluster
// package) through any member node.
//
// Usage:
//
//	ell-cluster [-addr 127.0.0.1:7700] <command> [args]
//
// Commands:
//
//	info                  show the contacted node's view of the cluster
//	map                   print the cluster map (height, digest, replicas, and every ID's
//	                      address, counter and in/out)
//	health                show the contacted node's failure-detector view (alive/suspect per
//	                      member) plus every member's cluster-layer counters
//	stats [all]           per-verb serving stats (calls, errors, bytes, p50/p99 latency) and
//	                      cluster counters (gossip, forwarded MLADD lines, transfer frames,
//	                      digest rounds) of the contacted node — or of every member with "all"
//	join <id> <addr>      add node <id> at <addr> to the cluster
//	leave <id>            remove node <id> (survivors re-replicate its keys)
//	add <key> <el>...     PFADD routed to the key's owners
//	count <key>...        cluster-wide union distinct count
//	wadd <key> <ts> <el>...  WADD routed to the key's owners (ts in unix ms)
//	wcount <key> <window> [ts]  windowed distinct count, slot-wise merged
//	winfo <key>           merged ring info (geometry, latest, dropped)
//	keys                  list all keys cluster-wide
//	ping                  check liveness of the contacted node
//
// Example — grow a cluster from one seed and count through any node:
//
//	elld -node-id n1 -addr :7700 &
//	elld -node-id n2 -addr :7701 -join 127.0.0.1:7700 &
//	ell-cluster -addr 127.0.0.1:7701 add visits alice bob
//	ell-cluster -addr 127.0.0.1:7700 count visits
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"exaloglog/cluster"
	"exaloglog/server"
)

const usageLine = "usage: ell-cluster [-addr host:port] info|map|health|stats [all]|join <id> <addr>|leave <id>|add <key> <el>...|count <key>...|wadd <key> <ts> <el>...|wcount <key> <window> [ts]|winfo <key>|keys|ping"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// cli is one invocation: the connection to the contacted node and where
// output goes. Its methods return the process exit code.
type cli struct {
	c              *server.Client
	stdout, stderr io.Writer
}

func (x *cli) usage() int {
	fmt.Fprintln(x.stderr, usageLine)
	return 2
}

func (x *cli) fail(err error) int {
	fmt.Fprintln(x.stderr, "ell-cluster:", err)
	return 1
}

// run is main without the process: it parses args (everything after the
// program name), runs one command and returns the exit code — 0 on
// success, 1 on a failed command, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	x := &cli{stdout: stdout, stderr: stderr}
	fs := flag.NewFlagSet("ell-cluster", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() { x.usage() }
	addr := fs.String("addr", "127.0.0.1:7700", "address of any cluster node")
	if err := fs.Parse(args); err != nil {
		return 2 // Parse has reported the error and the usage line
	}
	args = fs.Args()
	if len(args) == 0 {
		return x.usage()
	}

	c, err := server.Dial(*addr)
	if err != nil {
		return x.fail(err)
	}
	defer c.Close()
	x.c = c

	cmd, rest := strings.ToLower(args[0]), args[1:]
	switch cmd {
	case "info":
		reply, err := x.c.Do("CLUSTER", "INFO")
		if err != nil {
			return x.fail(err)
		}
		fmt.Fprintln(stdout, strings.ReplaceAll(reply, " ", "\n"))
	case "map":
		reply, err := x.c.Do("CLUSTER", "MAP")
		if err != nil {
			return x.fail(err)
		}
		m, err := cluster.DecodeMap(strings.Fields(reply))
		if err != nil {
			return x.fail(fmt.Errorf("malformed map reply %q: %w", reply, err))
		}
		fmt.Fprintf(stdout, "height      %d\ndigest      %016x\nreplicas    %d\n", m.Height(), m.Digest(), m.Replicas)
		for _, e := range m.Entries() {
			state := "out"
			if e.In() {
				state = "in"
			}
			fmt.Fprintf(stdout, "node        %-12s %s %d %s\n", e.ID, e.Addr, e.Counter, state)
		}
	case "health":
		reply, err := x.c.Do("CLUSTER", "HEALTH")
		if err != nil {
			return x.fail(err)
		}
		for _, tok := range strings.Fields(reply) {
			// Member rows are "<id>=<state>,k=v,...": the id cannot
			// contain '=' (validID), so the first '=' splits cleanly.
			id, fields, ok := strings.Cut(tok, "=")
			if !ok {
				fmt.Fprintln(stdout, tok)
				continue
			}
			fmt.Fprintf(stdout, "%-12s %s\n", id, strings.ReplaceAll(fields, ",", " "))
		}
		// Append every member's cluster-layer counters (best-effort: an
		// unreachable member shows an err= row, the detector rows above
		// still stand). These polls run through each node's peer pool,
		// so watching health is itself liveness evidence.
		if reply, err := c.Do("CLUSTER", "STATS", "ALL"); err == nil {
			fmt.Fprintln(stdout)
			fmt.Fprintln(stdout, "per-node stats:")
			for _, row := range strings.Split(reply, "; ") {
				if strings.HasPrefix(row, "node=") {
					fmt.Fprintln(stdout, row)
				}
			}
		}
	case "stats":
		parts := []string{"CLUSTER", "STATS"}
		switch {
		case len(rest) == 1 && strings.EqualFold(rest[0], "all"):
			parts = append(parts, "ALL")
		case len(rest) != 0:
			return x.usage()
		}
		reply, err := x.c.Do(parts...)
		if err != nil {
			return x.fail(err)
		}
		// The wire reply is one folded line (newlines → "; ", the
		// protocol's one-reply-one-line rule); unfold for humans.
		for _, row := range strings.Split(reply, "; ") {
			fmt.Fprintln(stdout, row)
		}
	case "join":
		if len(rest) != 2 {
			return x.usage()
		}
		return x.echo("CLUSTER", "JOIN", rest[0], rest[1])
	case "leave":
		if len(rest) != 1 {
			return x.usage()
		}
		return x.echo("CLUSTER", "LEAVE", rest[0])
	case "add":
		if len(rest) < 2 {
			return x.usage()
		}
		changed, err := x.c.PFAdd(rest[0], rest[1:]...)
		if err != nil {
			return x.fail(err)
		}
		fmt.Fprintf(stdout, "changed=%v\n", changed)
	case "count":
		if len(rest) < 1 {
			return x.usage()
		}
		n, err := x.c.PFCount(rest...)
		if err != nil {
			return x.fail(err)
		}
		fmt.Fprintln(stdout, n)
	case "wadd":
		if len(rest) < 3 {
			return x.usage()
		}
		reply, err := x.c.Do(append([]string{"WADD"}, rest...)...)
		if err != nil {
			return x.fail(err)
		}
		fmt.Fprintf(stdout, "accepted=%s\n", reply)
	case "wcount":
		if len(rest) != 2 && len(rest) != 3 {
			return x.usage()
		}
		return x.echo(append([]string{"WCOUNT"}, rest...)...)
	case "winfo":
		if len(rest) != 1 {
			return x.usage()
		}
		reply, err := x.c.Do("WINFO", rest[0])
		if err != nil {
			return x.fail(err)
		}
		for _, tok := range strings.Fields(reply) {
			fmt.Fprintln(stdout, tok)
		}
	case "keys":
		keys, err := c.Keys()
		if err != nil {
			return x.fail(err)
		}
		for _, k := range keys {
			fmt.Fprintln(stdout, k)
		}
	case "ping":
		if err := c.Ping(); err != nil {
			return x.fail(err)
		}
		fmt.Fprintln(stdout, "PONG")
	default:
		return x.usage()
	}
	return 0
}

// echo runs one command and prints its reply as it came.
func (x *cli) echo(parts ...string) int {
	reply, err := x.c.Do(parts...)
	if err != nil {
		return x.fail(err)
	}
	fmt.Fprintln(x.stdout, reply)
	return 0
}
