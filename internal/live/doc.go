// Package live runs the GMP protocol on real goroutines with real time:
// one goroutine per process, a pluggable transport (in-memory by default;
// the TCP+UDP two-plane wire, or a chaos-degraded wrapper via
// Options.Transport), and a pluggable failure detector
// implementing F1 (§2.2) — the deployment shape the paper targets ("a
// constant flow of requests … which is exactly what occurs in actual
// systems"). The protocol code is the same internal/core state machine
// the simulator runs; only the substrate differs.
//
// Each node's event loop multiplexes three inputs: its mailbox (transport
// deliveries and local tasks), its timers, and a single per-node liveness
// wheel that both emits heartbeat beacons and consults the failure
// detector. Who the wheel covers is the monitoring topology's decision
// (Options.Topology; internal/topology): beacons go to the members that
// watch this node, detector state exists only for the members this node
// watches, both recomputed at every view installation — all-to-all by
// default, O(k) per node under ring-k. Beacons are cadence-pure on every
// transport: each pass sends one beacon-class frame to every member that
// watches this node, whatever protocol traffic went out in between.
// Suspicion policy is delegated to an fd.Detector chosen per group
// through Options.Detector — the fixed SuspectAfter timeout by default,
// optionally wrapped in fd.Hysteresis's dwell — and the detector's
// graded suspicion level travels onto the recorded Faulty trace events
// (core.LevelRecorder). A stall guard protects the wheel itself: a node
// whose own loop was descheduled longer than half the suspicion threshold
// re-arms its observations instead of suspecting every peer at once,
// since its evidence of their silence is indistinguishable from its own
// absence.
//
// Under a partial topology, point-to-point-learned suspicions disseminate
// as SuspicionDigest batches riding the beacons themselves (DESIGN.md
// §10), on any transport: a pending digest replaces that interval's
// heartbeat on each beacon edge, and per-edge sent-sets and a per-view
// absorb dedup bound the flood to one crossing per monitoring edge.
// Digests travel only along beacon edges, toward each node's monitors:
// the heir learning the coordinator is dead stays a point-to-point
// FaultyReport, and a suspicion whose only route to the coordinator is a
// broken link is covered by core.Config.AwaitWait. Options.Self/Roster
// boot a single-member cluster
// for multi-process deployments — one OS process per member, wired by
// address exchange and bootstrapped by BootstrapSelf (E19's harness).
//
// Installed views are published on a bounded stream; overflow is counted
// (Cluster.Dropped), never blocking the protocol. Transport-level drop
// accounting is surfaced through Cluster.TransportStats.
package live
