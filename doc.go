// Package procgroup is a from-scratch implementation of the group
// membership protocol of Ricciardi & Birman, "Using Process Groups to
// Implement Failure Detection in Asynchronous Environments" (Cornell
// TR 91-1188 / PODC 1991): an asymmetric, coordinator-driven membership
// service that turns unreliable failure suspicions into an agreed, totally
// ordered sequence of views — the mechanism underlying ISIS-style virtual
// synchrony.
//
// The package exposes two ways to run the protocol:
//
//   - StartGroup boots a live group: one goroutine per process, a
//     pluggable transport, and a pluggable heartbeat failure detector.
//     This is the deployment shape for applications.
//
//   - NewSim builds a deterministic simulation on virtual time with exact
//     message accounting, adversarial failure injection (crashes in
//     mid-broadcast, spurious suspicions, partitions) and a GMP property
//     checker. This is the shape for tests, benchmarks, and reproducing
//     the paper's evaluation.
//
// Three live-group dimensions are selectable per group:
//
//   - Transport (GroupOptions.Transport): in-process delivery (default),
//     the network wire that keeps protocol traffic on TCP streams and
//     beacons on UDP datagrams (NewUDPBeaconTransport — the failure
//     detector's samples can never queue behind bulk data), or either of
//     those degraded by the chaos harness (NewChaosTransport — per-link
//     delay, jitter, beacon loss, burst outages, asymmetric partitions).
//
//   - Failure detection (GroupOptions.Detector): the classic fixed
//     silence threshold (NewFixedTimeoutDetector, the default via
//     GroupOptions.SuspectAfter), optionally wrapped by
//     NewHysteresisDetector, whose dwell forgives a crossing that
//     recovers — a GC pause or a link flapping at the threshold — while
//     a genuinely dead member is still detected one dwell later.
//
//   - Monitoring topology (GroupOptions.Topology): all-to-all monitoring
//     (NewFullTopology, the default) or ring-k (NewRingTopology), where
//     each member watches only its k rank-successors — F1 never required
//     all-to-all observation, so beacon traffic and TCP connection count
//     drop from O(n²) to O(n·k), with suspicions spread around the ring
//     in digests riding the beacons (DESIGN.md §8).
//
// See README.md for a quickstart, DESIGN.md for the system inventory and
// EXPERIMENTS.md for the paper-versus-measured record of every table and
// figure (E22 covers detector QoS under hostile timing, E17 the topology
// scaling sweep).
package procgroup
