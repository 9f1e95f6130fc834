package transport

// Chaos is the live runtime's adversity dial: a wrapper that degrades any
// inner Transport with configurable per-link delay, jitter, loss, burst
// outages and (asymmetric) partitions. The simulator has always been able
// to schedule this adversity on virtual time (internal/netsim); Chaos
// opens the same scenario space to the live goroutine runtime, which is
// what makes failure-detector policies comparable under realistic link
// behavior rather than only on a quiet loopback.
//
// The one property Chaos is careful to preserve is the paper's §2.1
// channel assumption: per-channel FIFO. Delayed frames of one directed
// channel drain through a single FIFO queue worker, so jitter stretches a
// channel but never reorders it — reordering adversity stays the
// simulator's job. Loss, by contrast, is exactly what the assumption
// permits a real network to do before the channel layer repairs it; a
// chaos drop is indistinguishable from a datagram vanishing.

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"procgroup/internal/ids"
)

// ChaosLink shapes one directed link. The zero value is a clean link.
type ChaosLink struct {
	// Delay is added to every frame's delivery.
	Delay time.Duration
	// Jitter adds a further uniform random [0, Jitter) per frame. FIFO
	// order within the channel is preserved regardless.
	Jitter time.Duration
	// Loss drops each frame independently with this probability. NOTE:
	// nothing above a Chaos wrapper repairs loss, so nonzero Loss on
	// protocol traffic breaks the §2.1 reliable-channel assumption the
	// state machine runs on — rounds wedge and the group treats the
	// victims as failed (safety holds, progress may not). Use it to
	// study exactly that; use BeaconLoss to stress only the failure
	// detector.
	Loss float64
	// BeaconLoss drops only beacon-class frames (beacon-registered
	// payloads sent with MsgID 0, the frames TwoPlane routes to its
	// datagram plane) with this probability. Beacons are idempotent and
	// loss-tolerant by design, so BeaconLoss thins the failure
	// detector's signal without touching the protocol's reliable
	// channels — including unrecorded application frames, which are
	// MsgID 0 too.
	BeaconLoss float64
	// BurstEvery/BurstFor schedule periodic total outages: during the
	// last BurstFor of every BurstEvery period the link drops
	// everything. Zero disables bursts.
	BurstEvery time.Duration
	BurstFor   time.Duration
	// Blocked hard-partitions the link (directed — blocking p→q alone
	// models an asymmetric partition).
	Blocked bool
}

// clean reports whether the link needs no delay queue.
func (l ChaosLink) clean() bool { return l.Delay <= 0 && l.Jitter <= 0 }

// ChaosOptions configures a Chaos wrapper.
type ChaosOptions struct {
	// Seed feeds the loss/jitter generator; runs with equal seeds and
	// send sequences draw identical chaos.
	Seed int64
	// Default is the link configuration for every pair without an
	// explicit SetLink override.
	Default ChaosLink
}

// chaosItem is one delayed frame. (chanKey, naming a directed channel, is
// shared with the TCP mux — see tcp.go.)
type chaosItem struct {
	at   time.Time
	from ids.ProcID
	to   ids.ProcID
	m    Message
}

// chaosQueue is a single directed channel's delay line: an unbounded FIFO
// drained by one worker goroutine, so delivery order equals send order no
// matter what each frame's sampled delay was.
type chaosQueue struct {
	mu   sync.Mutex
	q    []chaosItem
	wake chan struct{} // capacity 1
}

func (cq *chaosQueue) push(it chaosItem) {
	cq.mu.Lock()
	cq.q = append(cq.q, it)
	cq.mu.Unlock()
	select {
	case cq.wake <- struct{}{}:
	default:
	}
}

func (cq *chaosQueue) pop() (chaosItem, bool) {
	cq.mu.Lock()
	defer cq.mu.Unlock()
	if len(cq.q) == 0 {
		return chaosItem{}, false
	}
	it := cq.q[0]
	cq.q = cq.q[1:]
	return it, true
}

// Chaos wraps an inner Transport with adversarial link behavior. Configure
// per-link overrides with SetLink/Partition/Heal at any time, including
// while the group is running — that is the point.
type Chaos struct {
	inner Transport
	start time.Time

	mu      sync.Mutex
	rng     *rand.Rand
	def     ChaosLink
	links   map[chanKey]ChaosLink
	queues  map[chanKey]*chaosQueue
	stalled map[ids.ProcID]time.Time // process → stall end (StallProcess)
	closed  bool

	injected atomic.Int64
	stats    statCounters // closed-drop accounting for sends after Close
	stop     chan struct{}
	wg       sync.WaitGroup
}

// NewChaos wraps inner. The wrapper takes ownership: closing the Chaos
// closes inner.
func NewChaos(inner Transport, opts ChaosOptions) *Chaos {
	return &Chaos{
		inner:   inner,
		start:   time.Now(),
		rng:     rand.New(rand.NewSource(opts.Seed)),
		def:     opts.Default,
		links:   make(map[chanKey]ChaosLink),
		queues:  make(map[chanKey]*chaosQueue),
		stalled: make(map[ids.ProcID]time.Time),
		stop:    make(chan struct{}),
	}
}

// SetLink overrides the directed link from → to. Asymmetric degradation
// is first-class: configure p→q without touching q→p.
func (c *Chaos) SetLink(from, to ids.ProcID, l ChaosLink) {
	c.mu.Lock()
	c.links[chanKey{from, to}] = l
	c.mu.Unlock()
}

// SetLinkBoth overrides both directions between a and b.
func (c *Chaos) SetLinkBoth(a, b ids.ProcID, l ChaosLink) {
	c.SetLink(a, b, l)
	c.SetLink(b, a, l)
}

// Partition blocks both directions between a and b, preserving the links'
// other degradation parameters.
func (c *Chaos) Partition(a, b ids.ProcID) { c.setBlocked(a, b, true) }

// Heal unblocks both directions between a and b.
func (c *Chaos) Heal(a, b ids.ProcID) { c.setBlocked(a, b, false) }

func (c *Chaos) setBlocked(a, b ids.ProcID, blocked bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, k := range []chanKey{{a, b}, {b, a}} {
		l, ok := c.links[k]
		if !ok {
			l = c.def
		}
		l.Blocked = blocked
		c.links[k] = l
	}
}

// StallProcess freezes the wire around p for d from now: every frame to
// or from p is held and delivered only once the stall ends, in send
// order. This is the wire silhouette of a stop-the-world pause (GC,
// scheduler starvation, swap storm): the process neither emits nor
// absorbs traffic for a while, then everything thaws at once. Unlike
// Loss, nothing is dropped — per-channel FIFO and the §2.1 reliable-
// channel assumption survive — so the profile stresses exactly the
// failure detector's timing judgment, which is what the E22 stall arms
// measure. Overlapping stalls extend to the latest deadline.
func (c *Chaos) StallProcess(p ids.ProcID, d time.Duration) {
	until := time.Now().Add(d)
	c.mu.Lock()
	if cur, ok := c.stalled[p]; !ok || until.After(cur) {
		c.stalled[p] = until
	}
	c.mu.Unlock()
}

// stallHoldLocked returns the latest stall deadline covering either end
// of the channel (zero when none), pruning expired entries; c.mu held.
func (c *Chaos) stallHoldLocked(from, to ids.ProcID) time.Time {
	if len(c.stalled) == 0 {
		return time.Time{}
	}
	now := time.Now()
	var hold time.Time
	for _, p := range [2]ids.ProcID{from, to} {
		if until, ok := c.stalled[p]; ok {
			if until.After(now) {
				if until.After(hold) {
					hold = until
				}
			} else {
				delete(c.stalled, p)
			}
		}
	}
	return hold
}

// Register implements Transport.
func (c *Chaos) Register(p ids.ProcID, h Handler) error { return c.inner.Register(p, h) }

// Unregister implements Transport.
func (c *Chaos) Unregister(p ids.ProcID) { c.inner.Unregister(p) }

// Send implements Transport: sample the link's behavior, then deliver
// through the channel's delay line (or directly for clean links).
func (c *Chaos) Send(from, to ids.ProcID, m Message) {
	key := chanKey{from, to}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.stats.drop(dropClosed)
		return
	}
	link, ok := c.links[key]
	if !ok {
		link = c.def
	}
	if c.dropsLocked(link, m) {
		c.mu.Unlock()
		c.injected.Add(1)
		// The sender still paid for this frame; count it here because
		// the inner transport will never see it.
		c.stats.noteSend(m.Payload)
		return
	}
	d := link.Delay
	if link.Jitter > 0 {
		d += time.Duration(c.rng.Int63n(int64(link.Jitter)))
	}
	hold := c.stallHoldLocked(from, to)
	q := c.queues[key]
	if q == nil && (!link.clean() || !hold.IsZero()) {
		q = &chaosQueue{wake: make(chan struct{}, 1)}
		c.queues[key] = q
		c.wg.Add(1)
		go c.drain(q)
	}
	c.mu.Unlock()

	// Once a channel has a delay line, everything rides it — a frame that
	// sampled zero delay must not overtake queued predecessors.
	if q == nil {
		c.inner.Send(from, to, m)
		return
	}
	at := time.Now().Add(d)
	if hold.After(at) {
		at = hold // frozen by a process stall: thaw at its end, in order
	}
	q.push(chaosItem{at: at, from: from, to: to, m: m})
}

// dropsLocked decides whether this frame dies here; c.mu must be held.
func (c *Chaos) dropsLocked(link ChaosLink, m Message) bool {
	if link.Blocked {
		return true
	}
	if link.BurstEvery > 0 && link.BurstFor > 0 {
		// Bursts occupy the tail of each period so a group booted at
		// t=0 starts outside an outage.
		phase := time.Since(c.start) % link.BurstEvery
		if phase >= link.BurstEvery-link.BurstFor {
			return true
		}
	}
	if link.BeaconLoss > 0 && isBeacon(m) && c.rng.Float64() < link.BeaconLoss {
		return true
	}
	return link.Loss > 0 && c.rng.Float64() < link.Loss
}

// drain is a channel's delay-line worker: sleep until the head frame's
// delivery time, send it on, repeat. Frames still queued at Close are
// discarded, like any datagram in flight when the plug is pulled.
func (c *Chaos) drain(q *chaosQueue) {
	defer c.wg.Done()
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		it, ok := q.pop()
		if !ok {
			select {
			case <-q.wake:
				continue
			case <-c.stop:
				return
			}
		}
		if wait := time.Until(it.at); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-c.stop:
				timer.Stop()
				return
			}
		}
		c.inner.Send(it.from, it.to, it.m)
	}
}

// Stats implements Transport: the inner transport's counters plus the
// frames chaos itself consumed.
func (c *Chaos) Stats() Stats {
	s := c.inner.Stats()
	// Add, don't overwrite: stacked Chaos wrappers each contribute their
	// own injected drops.
	s.ChaosInjected += c.injected.Load()
	own := c.stats.snapshot()
	s.Closed += own.Closed
	s.SuspicionFrames += own.SuspicionFrames
	return s
}

// Close implements Transport: stops every delay line, then closes inner.
func (c *Chaos) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	close(c.stop)
	c.wg.Wait()
	return c.inner.Close()
}
