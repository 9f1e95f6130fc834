package channel

import (
	"math/rand"

	"procgroup/internal/sim"
)

// Frame is a data transmission carrying the alternating bit.
type Frame struct {
	Bit     bool
	Payload any
}

// Ack acknowledges the frame carrying Bit.
type Ack struct {
	Bit bool
}

// Sender is the stop-and-wait transmitter. All methods must run on the
// scheduler's thread — the alternating-bit state machines are
// single-threaded by design.
type Sender struct {
	sched    *sim.Scheduler
	transmit func(Frame)
	rto      sim.Time

	queue    []any
	bit      bool
	inflight bool
	gen      int
}

// NewSender builds a sender that transmits frames through transmit and
// retransmits every rto ticks until acknowledged.
func NewSender(sched *sim.Scheduler, rto sim.Time, transmit func(Frame)) *Sender {
	return &Sender{sched: sched, transmit: transmit, rto: rto}
}

// Send queues a payload for in-order reliable delivery.
func (s *Sender) Send(payload any) {
	s.queue = append(s.queue, payload)
	s.pump()
}

// Pending returns the number of queued-but-unacknowledged payloads.
func (s *Sender) Pending() int { return len(s.queue) }

func (s *Sender) pump() {
	if s.inflight || len(s.queue) == 0 {
		return
	}
	s.inflight = true
	s.emit(s.gen)
}

func (s *Sender) emit(gen int) {
	if gen != s.gen || !s.inflight {
		return
	}
	s.transmit(Frame{Bit: s.bit, Payload: s.queue[0]})
	s.sched.After(s.rto, func() { s.emit(gen) })
}

// OnAck processes an acknowledgement; a stale bit is ignored (it
// acknowledges a frame we have already advanced past).
func (s *Sender) OnAck(a Ack) {
	if !s.inflight || a.Bit != s.bit {
		return
	}
	s.inflight = false
	s.queue = s.queue[1:]
	s.bit = !s.bit
	s.gen++
	s.pump()
}

// Receiver is the delivery side: exactly-once, in-order.
type Receiver struct {
	expect  bool
	ack     func(Ack)
	deliver func(any)
}

// NewReceiver builds a receiver that sends acknowledgements through ack and
// hands deduplicated, ordered payloads to deliver.
func NewReceiver(ack func(Ack), deliver func(any)) *Receiver {
	return &Receiver{ack: ack, deliver: deliver}
}

// OnFrame processes a (possibly duplicated or stale) frame. Every frame is
// acknowledged with its own bit so a lost ack is repaired by the
// retransmission; only a frame carrying the expected bit is delivered.
func (r *Receiver) OnFrame(f Frame) {
	if f.Bit == r.expect {
		r.deliver(f.Payload)
		r.expect = !r.expect
	}
	r.ack(Ack{Bit: f.Bit})
}

// Lossy wraps a raw transmit function with loss, duplication and random
// delay, turning a perfect link into the adversarial one the protocol must
// survive. Like a physical wire — and like the link model a 1-bit sequence
// number requires — the link never reorders: delivery times are clamped
// monotone per link. (Handling reordering takes a full sliding window;
// the paper's "(1-bit) sequence number" fixes exactly the loss/duplication
// adversary.) Randomness comes from the scheduler's seeded generator, so
// runs are reproducible.
func Lossy(sched *sim.Scheduler, rng *rand.Rand, loss, dup float64, minD, maxD sim.Time, deliver func(any)) func(any) {
	span := int64(maxD - minD + 1)
	var last sim.Time
	post := func(p any) {
		at := sched.Now() + minD + sim.Time(rng.Int63n(span))
		if at <= last {
			at = last + 1
		}
		last = at
		sched.At(at, func() { deliver(p) })
	}
	return func(p any) {
		if rng.Float64() < loss {
			return
		}
		post(p)
		if rng.Float64() < dup {
			post(p)
		}
	}
}

// Pair wires a bidirectional ABP channel across a lossy link and returns
// the application-level send function. Payloads handed to send come out of
// deliver exactly once, in order, despite loss/duplication/reordering.
func Pair(sched *sim.Scheduler, rng *rand.Rand, loss, dup float64, minD, maxD sim.Time, rto sim.Time, deliver func(any)) (send func(any), sender *Sender) {
	var recv *Receiver
	// Forward path: frames from sender to receiver.
	frameOut := Lossy(sched, rng, loss, dup, minD, maxD, func(p any) {
		f, ok := p.(Frame)
		if !ok {
			return
		}
		recv.OnFrame(f)
	})
	s := NewSender(sched, rto, func(f Frame) { frameOut(f) })
	// Reverse path: acks from receiver to sender.
	ackOut := Lossy(sched, rng, loss, dup, minD, maxD, func(p any) {
		a, ok := p.(Ack)
		if !ok {
			return
		}
		s.OnAck(a)
	})
	recv = NewReceiver(func(a Ack) { ackOut(a) }, deliver)
	return s.Send, s
}
