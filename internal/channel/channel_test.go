package channel

import (
	"testing"
	"testing/quick"

	"procgroup/internal/sim"
)

func TestPerfectLinkDeliversInOrder(t *testing.T) {
	sched := sim.NewScheduler(1)
	var got []int
	send, sender := Pair(sched, sched.Rand(), 0, 0, 1, 1, 50, func(p any) {
		got = append(got, p.(int))
	})
	sched.At(0, func() {
		for i := 0; i < 20; i++ {
			send(i)
		}
	})
	sched.Run()
	if len(got) != 20 {
		t.Fatalf("delivered %d of 20", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order: %v", got)
		}
	}
	if sender.Pending() != 0 {
		t.Errorf("sender still has %d pending", sender.Pending())
	}
}

func TestSurvivesLossDuplicationReordering(t *testing.T) {
	// 30% loss, 20% duplication, delays 1..40: the
	// alternating-bit layer must still deliver exactly-once in order.
	sched := sim.NewScheduler(7)
	var got []int
	send, _ := Pair(sched, sched.Rand(), 0.30, 0.20, 1, 40, 60, func(p any) {
		got = append(got, p.(int))
	})
	const n = 120
	sched.At(0, func() {
		for i := 0; i < n; i++ {
			send(i)
		}
	})
	sched.Run()
	if len(got) != n {
		t.Fatalf("delivered %d of %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("order violated at %d: got %d", i, v)
		}
	}
}

func TestQuickRandomAdversary(t *testing.T) {
	f := func(seed int64, lossRaw, dupRaw uint8) bool {
		loss := float64(lossRaw%45) / 100 // up to 44% loss
		dup := float64(dupRaw%45) / 100
		sched := sim.NewScheduler(seed)
		var got []int
		send, _ := Pair(sched, sched.Rand(), loss, dup, 1, 25, 40, func(p any) {
			got = append(got, p.(int))
		})
		const n = 40
		sched.At(0, func() {
			for i := 0; i < n; i++ {
				send(i)
			}
		})
		sched.Run()
		if len(got) != n {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestReceiverDeduplicates(t *testing.T) {
	var got []any
	var acks []Ack
	r := NewReceiver(func(a Ack) { acks = append(acks, a) }, func(p any) { got = append(got, p) })
	f := Frame{Bit: false, Payload: "x"}
	r.OnFrame(f)
	r.OnFrame(f) // duplicate: must ack but not deliver
	if len(got) != 1 {
		t.Errorf("delivered %d times", len(got))
	}
	if len(acks) != 2 {
		t.Errorf("acked %d times, want 2 (lost-ack repair)", len(acks))
	}
}

func TestSenderIgnoresStaleAcks(t *testing.T) {
	sched := sim.NewScheduler(1)
	sent := 0
	s := NewSender(sched, 100, func(Frame) { sent++ })
	sched.At(0, func() {
		s.Send("a")
		s.OnAck(Ack{Bit: true}) // wrong bit: not ours
	})
	sched.RunUntil(50)
	if s.Pending() != 1 {
		t.Errorf("stale ack advanced the window: pending=%d", s.Pending())
	}
	sched.At(51, func() { s.OnAck(Ack{Bit: false}) })
	sched.RunUntil(60)
	if s.Pending() != 0 {
		t.Errorf("matching ack did not advance: pending=%d", s.Pending())
	}
}

func TestRetransmissionOnSilence(t *testing.T) {
	sched := sim.NewScheduler(1)
	sent := 0
	s := NewSender(sched, 10, func(Frame) { sent++ })
	sched.At(0, func() { s.Send("a") })
	sched.RunUntil(45)
	if sent < 4 { // t=0,10,20,30,40
		t.Errorf("only %d transmissions in 45 ticks with rto=10", sent)
	}
	sched.At(46, func() { s.OnAck(Ack{Bit: false}) })
	sched.RunUntil(100)
	after := sent
	sched.RunUntil(200)
	if sent != after {
		t.Error("retransmissions continued after the ack")
	}
}
