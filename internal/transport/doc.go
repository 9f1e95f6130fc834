// Package transport is the pluggable message substrate of the live
// runtime: it moves protocol payloads between registered processes while
// preserving the per-channel FIFO order the paper's model assumes (§2.1).
// The live cluster speaks only the Transport interface. Three
// compositions are supported:
//
//   - Inmem: direct in-process delivery, for tests and single-process
//     deployments;
//   - TwoPlane(TCP, UDP): the network wire. TwoPlane routes beacon-class
//     payloads to a datagram plane and everything else to a stream
//     plane, so beacons never queue behind protocol traffic
//     (BeaconPlaner exposes the plane to tests and tools). The stream
//     plane, TCP, runs one multiplexed length-prefixed binary stream per
//     unordered peer pair (channel-tagged frames, per-channel FIFO queues
//     drained by one writer into vectored batches, decoded inline by the
//     connection's reader), with reconnect — the paper's asynchronous
//     network made literal. It has one frame type and one FIFO rule:
//     every frame carries its channel's mux sequence, and the reader
//     drops any frame that does not advance it, an unsequenced one
//     included. A beacon sent on it is an ordinary sequenced frame. The beacon plane, UDP, sends one datagram
//     per frame — no ordering, no retransmission, no backpressure. That
//     is exactly the right contract for beacons, whose information
//     content is their arrival time: a drop costs one idempotent sample,
//     while queueing delay (what a shared stream imposes) distorts every
//     inter-arrival the failure detector fits (DESIGN.md §9). It is the
//     wrong one for protocol traffic, so the UDP receiver delivers
//     beacons only. Neither plane is a group wire alone: stream-only
//     TCP falsely excludes a member whose beacons queue behind its own
//     bulk traffic (EXPERIMENTS.md E18), and bare UDP breaks FIFO;
//   - Chaos: a wrapper that degrades either of the above — or one plane
//     of the wire — with per-link delay, jitter, beacon loss, burst
//     outages and asymmetric partitions, reconfigurable at runtime — the
//     live chaos harness that opens the simulator's adversity space
//     (internal/netsim) to the goroutine runtime, used by E22's
//     detector QoS runs.
//
// The paper's §3 claim that reliable FIFO channels are implementable over
// a lossy, duplicating link is proven by internal/channel under the
// simulator, not by a live transport.
//
// Every implementation shares datagram-drop semantics for dead hosts
// (the failure detector decides who failed, §2.2) and per-reason drop
// accounting through Stats, which also gauges send-queue depth (current
// and high-water) so congestion is observable before it becomes drops,
// and counts suspicion-class frames (Stats.SuspicionFrames) so the
// dissemination cost of DESIGN.md §10 is measured at the wire. The TCP stream plane honors the reliable-FIFO contract
// through transient faults: simultaneous opens resolve to the same
// socket on both ends (smaller initiator wins; a pair whose two ends
// share one instance keeps its dialed socket), and the pair writer
// retries failed dials and writes with backoff before accounting a
// drop. What the kernel reports about a peer for free — a pair stream
// that ends under its local end, a refused dial — the stream plane hands
// the local end as closed-stream evidence (PeerClosed), a hint the
// detector may use to stop waiting early, never a verdict.
// The wire codec (Frame, AppendFrame / EncodeFrame / ReadFrame /
// DecodeFrame) is a hand-rolled binary format — length-prefixed on
// streams, bare frame body per datagram — covering the whole
// internal/core wire vocabulary plus whatever substrate layers register.
// It is the only encoding: a payload type with no registered codec is an
// encode error, counted by the sending transport as a drop, and a frame
// whose kind byte is unregistered (retired kinds 0, 18 and 19 included)
// is a decode error. The format is pinned byte-for-byte by golden tests
// (DESIGN.md §6).
package transport
