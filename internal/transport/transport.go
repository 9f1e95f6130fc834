package transport

import (
	"sync/atomic"

	"procgroup/internal/ids"
)

// Message is one transport-level datagram: a protocol payload plus the
// trace-correlation id assigned by the sender (0 marks unrecorded
// substrate traffic such as heartbeats).
type Message struct {
	MsgID   int64
	Payload any
}

// PeerClosed is closed-stream evidence, delivered to a registered
// process q as a message from peer p. The TCP stream plane sends it when
// q's established pair stream with p ends without q's side closing it
// (EOF or a failed write), when a dial from q to p's address is refused,
// and when Unregister(p) stops a pair whose other end q is registered on
// the same instance — the same-host model of the kernel closing a dead
// process's sockets. It never fires for a rival socket closed during a
// simultaneous open, for q's own Unregister or Close, or on Inmem or
// UDP. It is synthesized at the receiver and never encoded, so TwoPlane
// and Chaos pass it through unchanged.
type PeerClosed struct{}

// Handler consumes messages delivered to a registered process. Transports
// call handlers from their own delivery goroutines, one message at a time
// per channel; handlers must not block (the live runtime's handlers only
// append to an unbounded mailbox).
type Handler func(from ids.ProcID, m Message)

// Transport moves messages between registered processes.
//
// Semantics shared by every implementation:
//
//   - Send is asynchronous and never blocks the caller on the network.
//   - Messages on one directed channel (from, to) are delivered in send
//     order — the reliable-FIFO channel property of §2.1.
//   - A send to an unregistered (or unreachable) process is silently
//     dropped, exactly like a datagram to a dead host. The failure
//     detector decides who has failed; the transport never does.
//   - A transport may hand a process closed-stream evidence about a peer
//     (PeerClosed). The evidence is a hint, never a verdict: it only
//     shortens how long the detector waits for silence, so a live peer
//     that keeps beaconing is never suspected on its account.
//   - Close tears the whole substrate down; all subsequent operations are
//     no-ops.
type Transport interface {
	// Register attaches a process and its delivery handler. It returns an
	// error if the transport is closed, the id is already registered, or
	// (for socket transports) the endpoint cannot be opened.
	Register(p ids.ProcID, h Handler) error
	// Unregister detaches p: its endpoint stops accepting and later sends
	// to it are dropped. Unregistering an unknown id is a no-op.
	Unregister(p ids.ProcID)
	// Send transmits m on the directed channel from → to.
	Send(from, to ids.ProcID, m Message)
	// Stats reports the per-reason drop counters accumulated so far.
	Stats() Stats
	// Close shuts the transport down and releases its resources.
	Close() error
}

// Stats counts messages a transport dropped, by reason. Drops are normal
// operation for a datagram-semantics substrate — the counters exist so an
// operator can tell a congested link (QueueSaturated) from a dead or
// unknown host (DialFailed / UnknownPeer), which are indistinguishable
// from silence at the protocol layer.
type Stats struct {
	// QueueSaturated counts sends dropped because a channel's bounded
	// outbound queue was full: the peer was unreachable (or slow) long
	// enough for traffic to back up.
	QueueSaturated int64
	// UnknownPeer counts sends dropped because the destination had no
	// known address or registered handler.
	UnknownPeer int64
	// DialFailed counts frames dropped because the destination endpoint
	// could not be reached — the dead-host case.
	DialFailed int64
	// WriteFailed counts frames dropped after exhausting write retries
	// on a connection that broke mid-stream.
	WriteFailed int64
	// Closed counts sends issued after the transport (or the channel's
	// link) was closed.
	Closed int64
	// ChaosInjected counts frames deliberately discarded by a Chaos
	// wrapper (loss, burst windows, partitions) — injected faults, never
	// congestion or dead hosts.
	ChaosInjected int64
	// Truncated counts datagrams dropped at a size boundary: a send whose
	// encoding exceeds the datagram plane's maximum, or a receive the
	// kernel cut short. Stream transports never truncate (they reject
	// oversize frames as WriteFailed before any bytes move).
	Truncated int64
	// DecodeFailed counts inbound frames discarded because their bytes did
	// not parse — corruption, version skew, or garbage aimed at the port —
	// or, on the datagram plane, parsed as something other than a beacon.
	// The sender is unknown or untrusted, so these cannot be attributed
	// to a channel.
	DecodeFailed int64
	// SuspicionFrames counts outbound frames whose payload disseminates
	// failure suspicions (FaultyReport point-to-point traffic and
	// suspicion digests alike). It is a cost counter, not a drop:
	// dissemination cost is read here directly instead of being
	// inferred from beacon counts.
	SuspicionFrames int64
	// ConnsOpen is a gauge, not a counter: the number of connections
	// currently established (TCP: one per peer pair with an active
	// multiplexed link; always 0 on connectionless transports). Because
	// the TCP transport dials lazily — a link exists only once some
	// frame actually needed it — this measures the monitoring topology's
	// real footprint: a full mesh settles at n(n−1)/2, ring-k at ~n·k.
	ConnsOpen int64
	// SendQueueNow is a gauge: frames currently sitting in stream-plane
	// send queues across every channel. Zero on datagram transports,
	// which never queue.
	SendQueueNow int64
	// SendQueueMax is a high-water mark: the deepest any single channel's
	// send queue has been since the transport started. Together with
	// SendQueueNow it makes stream-plane backpressure observable before
	// it matures into QueueSaturated drops.
	SendQueueMax int64
}

// Dropped sums every drop reason. The gauges (ConnsOpen, SendQueueNow,
// SendQueueMax) are state, not drops, and are excluded.
func (s Stats) Dropped() int64 {
	return s.QueueSaturated + s.UnknownPeer + s.DialFailed + s.WriteFailed +
		s.Closed + s.ChaosInjected + s.Truncated + s.DecodeFailed
}

// merge sums o's counters into s and returns the result, for transports
// composed of several planes. Counters add; ConnsOpen and SendQueueNow
// are additive gauges; SendQueueMax is a per-channel high-water mark, so
// the merged value is the larger of the two.
func (s Stats) merge(o Stats) Stats {
	s.QueueSaturated += o.QueueSaturated
	s.UnknownPeer += o.UnknownPeer
	s.DialFailed += o.DialFailed
	s.WriteFailed += o.WriteFailed
	s.Closed += o.Closed
	s.ChaosInjected += o.ChaosInjected
	s.Truncated += o.Truncated
	s.DecodeFailed += o.DecodeFailed
	s.SuspicionFrames += o.SuspicionFrames
	s.ConnsOpen += o.ConnsOpen
	s.SendQueueNow += o.SendQueueNow
	if o.SendQueueMax > s.SendQueueMax {
		s.SendQueueMax = o.SendQueueMax
	}
	return s
}

// dropReason indexes statCounters; dropNone marks a delivered frame.
type dropReason int

const (
	dropNone dropReason = iota
	dropQueueSaturated
	dropUnknownPeer
	dropDialFailed
	dropWriteFailed
	dropClosed
	dropTruncated
	dropDecodeFailed
)

// statCounters is the shared atomic implementation behind every
// transport's Stats. sendQueueMax is the high-water mark satellite
// gauge; stream transports raise it via queueDepth on every enqueue.
type statCounters struct {
	queueSaturated, unknownPeer, dialFailed, writeFailed, closed atomic.Int64
	truncated, decodeFailed                                      atomic.Int64
	suspicionFrames                                              atomic.Int64
	sendQueueMax                                                 atomic.Int64
}

func (c *statCounters) drop(r dropReason) { c.dropN(r, 1) }

// noteSend classifies one outbound payload for the cost counters: frames
// carrying suspicion dissemination are counted whether or not they later
// drop — the protocol paid the send either way. Transports call it once
// per Send, before routing or queueing.
func (c *statCounters) noteSend(payload any) {
	if pc := binCodecFor(payload); pc != nil && pc.suspicion {
		c.suspicionFrames.Add(1)
	}
}

func (c *statCounters) dropN(r dropReason, n int64) {
	if n <= 0 {
		return
	}
	switch r {
	case dropQueueSaturated:
		c.queueSaturated.Add(n)
	case dropUnknownPeer:
		c.unknownPeer.Add(n)
	case dropDialFailed:
		c.dialFailed.Add(n)
	case dropWriteFailed:
		c.writeFailed.Add(n)
	case dropClosed:
		c.closed.Add(n)
	case dropTruncated:
		c.truncated.Add(n)
	case dropDecodeFailed:
		c.decodeFailed.Add(n)
	}
}

// queueDepth records a channel queue's depth after an enqueue, raising
// the high-water mark if this is the deepest any queue has been.
func (c *statCounters) queueDepth(depth int64) {
	for {
		cur := c.sendQueueMax.Load()
		if depth <= cur || c.sendQueueMax.CompareAndSwap(cur, depth) {
			return
		}
	}
}

func (c *statCounters) snapshot() Stats {
	return Stats{
		QueueSaturated:  c.queueSaturated.Load(),
		UnknownPeer:     c.unknownPeer.Load(),
		DialFailed:      c.dialFailed.Load(),
		WriteFailed:     c.writeFailed.Load(),
		Closed:          c.closed.Load(),
		Truncated:       c.truncated.Load(),
		DecodeFailed:    c.decodeFailed.Load(),
		SuspicionFrames: c.suspicionFrames.Load(),
		SendQueueMax:    c.sendQueueMax.Load(),
	}
}
