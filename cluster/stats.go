package cluster

// Cluster-level observability: the CLUSTER STATS verb and the
// Prometheus rendering of the counters the cluster layer keeps on top
// of the per-verb server stats — gossip rounds, suspicions raised,
// auto-LEAVE evictions, forwarded MLADD writes, transfer frames and
// digest rounds. CLUSTER STATS ALL fans the same question out to every member
// through the peer pool, which doubles as liveness evidence: a
// metrics-polling operator keeps the failure detector fed (see
// pool.alive).

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"strings"

	"exaloglog/server"
)

// ClusterStats is a snapshot of the cluster-layer counters of one node.
// The server-level per-verb stats live in Node.Server().Stats().
type ClusterStats struct {
	GossipRounds   uint64 // detector rounds this node has run
	SuspectsRaised uint64 // alive→suspect transitions in this node's own judgment
	AutoLeaves     uint64 // quorum-backed evictions this node coordinated
	MLPFAddGroups  uint64 // MLADD lines sent, one a forwarded write (the name predates the verb)
	MLPFAddBatches uint64 // the same count as MLPFAddGroups: a line carries one write
	MLAddBytes     uint64 // bytes of the MLADD lines sent, line breaks included

	// Transfer pipeline counters (see transfer.go).
	XferStreams uint64 // streams that sent a frame
	XferFrames  uint64 // frames sent
	XferBytes   uint64 // value blob bytes in the frames a peer merged

	// Frame bytes and digest anti-entropy counters (see transfer.go and
	// digestsync.go).
	XferBytesWire    uint64 // frame bytes sent, before base64
	SyncDigestRounds uint64 // digest anti-entropy rounds completed
	SyncKeysRepaired uint64 // divergent keys re-shipped by digest rounds
}

// StatsCounters returns a snapshot of this node's cluster-layer
// counters.
func (n *Node) StatsCounters() ClusterStats {
	g := &n.gsp
	g.mu.Lock()
	rounds, raised := g.round, g.suspectsRaised
	g.mu.Unlock()
	lines := n.peers.mlLines.Load()
	return ClusterStats{
		GossipRounds:   rounds,
		SuspectsRaised: raised,
		AutoLeaves:     n.autoLeaves.Load(),
		MLPFAddGroups:  lines,
		MLPFAddBatches: lines,
		MLAddBytes:     n.peers.mlBytes.Load(),

		XferStreams: n.xfer.streams.Load(),
		XferFrames:  n.xfer.frames.Load(),
		XferBytes:   n.xfer.bytes.Load(),

		XferBytesWire:    n.xfer.wireBytes.Load(),
		SyncDigestRounds: n.digestRounds.Load(),
		SyncKeysRepaired: n.digestRepairs.Load(),
	}
}

// statsBody renders this node's CLUSTER STATS reply body (no type
// sigil): a cluster-counter row, then the server's STATS rows. The rows
// are newline-joined here and folded to "; " by the server's one-line
// reply rule, so split on "; " to get them back.
func (n *Node) statsBody() string {
	c := n.StatsCounters()
	// New counters are appended at the end of the row: consumers parse
	// k=v pairs by name, but prefix-matching tests and scripts stay
	// stable that way.
	return fmt.Sprintf(
		"node=%s gossip_rounds=%d suspects_raised=%d auto_leaves=%d mlpfadd_groups=%d mlpfadd_batches=%d xfer_streams=%d xfer_frames=%d xfer_bytes=%d xfer_bytes_wire=%d sync_digest_rounds=%d sync_keys_repaired=%d mladd_bytes=%d\n%s",
		n.id, c.GossipRounds, c.SuspectsRaised, c.AutoLeaves,
		c.MLPFAddGroups, c.MLPFAddBatches,
		c.XferStreams, c.XferFrames, c.XferBytes,
		c.XferBytesWire, c.SyncDigestRounds, c.SyncKeysRepaired, c.MLAddBytes,
		n.srv.Stats().Text(n.store))
}

const clusterStatsUsage = "-ERR CLUSTER STATS takes at most one argument: ALL"

// handleStats serves CLUSTER STATS [ALL]: this node's cluster counters
// plus its per-verb server stats, or — with ALL — every member's, fetched
// through the peer pool (so the polls themselves feed the failure
// detector) and newline-joined in member order. An unreachable member
// contributes an err= row instead of failing the whole reply: an operator
// polling stats mid-partition still wants the reachable side.
func (n *Node) handleStats(reply []byte, args [][]byte) []byte {
	if len(args) == 0 {
		return append(append(reply, '+'), n.statsBody()...)
	}
	if !bytes.EqualFold(args[0], []byte("ALL")) {
		return append(reply, clusterStatsUsage...)
	}
	members := n.currentMap().Members()
	rows := make([]string, len(members))
	n.eachOwner(members, func(mem Member) error {
		i := slices.IndexFunc(members, func(o Member) bool { return o.ID == mem.ID })
		if mem.ID == n.id {
			rows[i] = n.statsBody()
		} else if row, err := n.peers.do(mem.Addr, "CLUSTER", "STATS"); err != nil {
			rows[i] = fmt.Sprintf("node=%s err=%q", mem.ID, err.Error())
		} else {
			rows[i] = row
		}
		return nil
	})
	return append(append(reply, '+'), strings.Join(rows, "\n")...)
}

// WriteMetrics writes the node's cluster-layer counters in Prometheus
// text exposition format. elld's /metrics listener emits this after the
// server's per-verb metrics, so one scrape covers both layers.
func (n *Node) WriteMetrics(w io.Writer) {
	c := n.StatsCounters()
	fmt.Fprintf(w, "# TYPE ell_cluster_gossip_rounds_total counter\nell_cluster_gossip_rounds_total %d\n", c.GossipRounds)
	fmt.Fprintf(w, "# TYPE ell_cluster_suspects_raised_total counter\nell_cluster_suspects_raised_total %d\n", c.SuspectsRaised)
	fmt.Fprintf(w, "# TYPE ell_cluster_auto_leaves_total counter\nell_cluster_auto_leaves_total %d\n", c.AutoLeaves)
	fmt.Fprintf(w, "# TYPE ell_cluster_mlpfadd_groups_total counter\nell_cluster_mlpfadd_groups_total %d\n", c.MLPFAddGroups)
	fmt.Fprintf(w, "# TYPE ell_cluster_mlpfadd_batches_total counter\nell_cluster_mlpfadd_batches_total %d\n", c.MLPFAddBatches)
	fmt.Fprintf(w, "# TYPE ell_cluster_mladd_bytes_total counter\nell_cluster_mladd_bytes_total %d\n", c.MLAddBytes)
	fmt.Fprintf(w, "# TYPE ell_cluster_xfer_streams_total counter\nell_cluster_xfer_streams_total %d\n", c.XferStreams)
	fmt.Fprintf(w, "# TYPE ell_cluster_xfer_frames_total counter\nell_cluster_xfer_frames_total %d\n", c.XferFrames)
	fmt.Fprintf(w, "# TYPE ell_cluster_xfer_bytes_total counter\nell_cluster_xfer_bytes_total %d\n", c.XferBytes)
	fmt.Fprintf(w, "# TYPE ell_cluster_xfer_bytes_wire_total counter\nell_cluster_xfer_bytes_wire_total %d\n", c.XferBytesWire)
	fmt.Fprintf(w, "# TYPE ell_cluster_sync_digest_rounds_total counter\nell_cluster_sync_digest_rounds_total %d\n", c.SyncDigestRounds)
	fmt.Fprintf(w, "# TYPE ell_cluster_sync_keys_repaired_total counter\nell_cluster_sync_keys_repaired_total %d\n", c.SyncKeysRepaired)
}

// Server exposes the node's embedded server, e.g. for its Stats core
// or the Prometheus writer.
func (n *Node) Server() *server.Server { return n.srv }
