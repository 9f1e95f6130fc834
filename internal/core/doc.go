// Package core implements the paper's contribution: the asymmetric Group
// Membership Protocol of Ricciardi & Birman (TR 91-1188). A Node is one
// process of the group. It plays three roles over its lifetime:
//
//   - outer process: answers the coordinator's invitations and installs
//     committed view changes (Fig. 9);
//   - coordinator (Mgr): drives the two-phase update algorithm, compressed
//     across successive rounds (Fig. 8);
//   - reconfigurer: when every higher-ranked process is suspected, runs the
//     three-phase Interrogate/Propose/Commit protocol that replaces a failed
//     coordinator while preserving any invisibly committed update
//     (Figs. 5, 6, 10).
//
// Nodes are single-threaded: the environment serializes message delivery,
// suspicion inputs, and timers.
//
// Under a partial monitoring topology the node also disseminates its
// point-to-point-learned suspicions through the environment's
// SuspicionGossiper (batched digests riding the beacons, re-disseminated
// on absorb via GossipSuspectWithLevel). The one latency-critical hop —
// the expected initiator learning the coordinator is dead — stays a
// point-to-point FaultyReport.
package core
