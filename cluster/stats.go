package cluster

// Cluster-level observability: the CLUSTER STATS verb and the
// Prometheus rendering of the counters the cluster layer keeps on top
// of the per-verb server stats — gossip rounds, suspicions raised,
// auto-LEAVE evictions, MLADD group-commit coalescing, transfer frames
// and digest rounds. CLUSTER STATS ALL fans the same question out to every member
// through the peer pool, which doubles as liveness evidence: a
// metrics-polling operator keeps the failure detector fed (see
// pool.alive).

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"exaloglog/server"
)

// ClusterStats is a snapshot of the cluster-layer counters of one node.
// The server-level per-verb stats live in Node.Server().Stats().
type ClusterStats struct {
	GossipRounds   uint64 // detector rounds this node has run
	SuspectsRaised uint64 // alive→suspect transitions in this node's own judgment
	AutoLeaves     uint64 // quorum-backed evictions this node coordinated
	MLPFAddGroups  uint64 // per-key add groups coalesced into MLADD batches (the name predates the verb)
	MLPFAddBatches uint64 // MLADD batches flushed
	MLAddBytes     uint64 // bytes of the MLADD lines sent, line breaks included
	MovedReplies   uint64 // -MOVED redirects sent to misrouted clients (strict routing)
	MapRefetches   uint64 // CLUSTER MAP replies served (smart clients refetching after a -MOVED)

	// Transfer pipeline counters (see transfer.go).
	XferStreams uint64 // streams that sent a frame
	XferFrames  uint64 // frames sent
	XferBytes   uint64 // value blob bytes in the frames a peer merged

	// Frame bytes and digest anti-entropy counters (see transfer.go and
	// digestsync.go).
	XferBytesPrecompress uint64 // equal to XferBytesWire: frames carry blobs as they are
	XferBytesWire        uint64 // frame bytes sent, before base64
	SyncDigestRounds     uint64 // digest anti-entropy rounds completed
	SyncKeysRepaired     uint64 // divergent keys re-shipped by digest rounds
}

// StatsCounters returns a snapshot of this node's cluster-layer
// counters.
func (n *Node) StatsCounters() ClusterStats {
	g := &n.gsp
	g.mu.Lock()
	rounds, raised := g.round, g.suspectsRaised
	g.mu.Unlock()
	wire := n.xfer.wireBytes.Load()
	return ClusterStats{
		GossipRounds:   rounds,
		SuspectsRaised: raised,
		AutoLeaves:     n.autoLeaves.Load(),
		MLPFAddGroups:  n.peers.mlGroups.Load(),
		MLPFAddBatches: n.peers.mlBatches.Load(),
		MLAddBytes:     n.peers.mlBytes.Load(),
		MovedReplies:   n.movedReplies.Load(),
		MapRefetches:   n.mapRefetches.Load(),

		XferStreams: n.xfer.streams.Load(),
		XferFrames:  n.xfer.frames.Load(),
		XferBytes:   n.xfer.bytes.Load(),

		XferBytesPrecompress: wire,
		XferBytesWire:        wire,
		SyncDigestRounds:     n.digestRounds.Load(),
		SyncKeysRepaired:     n.digestRepairs.Load(),
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
		"node=%s gossip_rounds=%d suspects_raised=%d auto_leaves=%d mlpfadd_groups=%d mlpfadd_batches=%d moved_replies=%d map_refetches=%d xfer_streams=%d xfer_frames=%d xfer_bytes=%d xfer_bytes_precompress=%d xfer_bytes_wire=%d sync_digest_rounds=%d sync_keys_repaired=%d mladd_bytes=%d\n%s",
		n.id, c.GossipRounds, c.SuspectsRaised, c.AutoLeaves,
		c.MLPFAddGroups, c.MLPFAddBatches,
		c.MovedReplies, c.MapRefetches,
		c.XferStreams, c.XferFrames, c.XferBytes,
		c.XferBytesPrecompress, c.XferBytesWire,
		c.SyncDigestRounds, c.SyncKeysRepaired, c.MLAddBytes,
		n.srv.StatsText())
}

// handleClusterStats serves CLUSTER STATS [ALL]: this node's cluster
// counters plus its per-verb server stats, or — with ALL — every
// member's, fetched through the peer pool (so the polls themselves feed
// the failure detector) and newline-joined in member order. An
// unreachable member contributes an err= row instead of failing the
// whole reply: an operator polling stats mid-partition still wants the
// reachable side.
func (n *Node) handleClusterStats(rest []string) string {
	switch {
	case len(rest) == 0:
		return "+" + n.statsBody()
	case len(rest) == 1 && strings.EqualFold(rest[0], "ALL"):
		members := n.currentMap().Members()
		rows := make([]string, len(members))
		var wg sync.WaitGroup
		for i, mem := range members {
			if mem.ID == n.id {
				rows[i] = n.statsBody()
				continue
			}
			wg.Add(1)
			go func(i int, mem Member) {
				defer wg.Done()
				reply, err := n.peers.do(mem.Addr, "CLUSTER", "STATS")
				if err != nil {
					rows[i] = fmt.Sprintf("node=%s err=%q", mem.ID, err.Error())
					return
				}
				rows[i] = reply
			}(i, mem)
		}
		wg.Wait()
		return "+" + strings.Join(rows, "\n")
	default:
		return "-ERR CLUSTER STATS takes at most one argument: ALL"
	}
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
	fmt.Fprintf(w, "# TYPE ell_cluster_moved_replies_total counter\nell_cluster_moved_replies_total %d\n", c.MovedReplies)
	fmt.Fprintf(w, "# TYPE ell_cluster_map_refetches_total counter\nell_cluster_map_refetches_total %d\n", c.MapRefetches)
	fmt.Fprintf(w, "# TYPE ell_cluster_xfer_streams_total counter\nell_cluster_xfer_streams_total %d\n", c.XferStreams)
	fmt.Fprintf(w, "# TYPE ell_cluster_xfer_frames_total counter\nell_cluster_xfer_frames_total %d\n", c.XferFrames)
	fmt.Fprintf(w, "# TYPE ell_cluster_xfer_bytes_total counter\nell_cluster_xfer_bytes_total %d\n", c.XferBytes)
	fmt.Fprintf(w, "# TYPE ell_cluster_xfer_bytes_precompress_total counter\nell_cluster_xfer_bytes_precompress_total %d\n", c.XferBytesPrecompress)
	fmt.Fprintf(w, "# TYPE ell_cluster_xfer_bytes_wire_total counter\nell_cluster_xfer_bytes_wire_total %d\n", c.XferBytesWire)
	fmt.Fprintf(w, "# TYPE ell_cluster_sync_digest_rounds_total counter\nell_cluster_sync_digest_rounds_total %d\n", c.SyncDigestRounds)
	fmt.Fprintf(w, "# TYPE ell_cluster_sync_keys_repaired_total counter\nell_cluster_sync_keys_repaired_total %d\n", c.SyncKeysRepaired)
}

// Server exposes the node's embedded server, e.g. for its Stats core
// or the Prometheus writer.
func (n *Node) Server() *server.Server { return n.srv }
