package transport

import (
	"sync"
	"testing"
	"time"

	"procgroup/internal/ids"
)

func TestChaosFIFOUnderJitter(t *testing.T) {
	// Per-frame jitter up to 3ms over a 500-frame burst: delivery must
	// stay ordered and exactly-once — jitter stretches a channel, never
	// reorders it.
	tr := NewChaos(NewInmem(), ChaosOptions{
		Seed:    3,
		Default: ChaosLink{Jitter: 3 * time.Millisecond},
	})
	defer tr.Close()
	checkFIFO(t, tr, 500, 20*time.Second)
}

func TestChaosCleanLinkIsTransparent(t *testing.T) {
	// No configured adversity: sends go straight through the inner
	// transport with no delay line and no injected drops.
	tr := NewChaos(NewInmem(), ChaosOptions{})
	defer tr.Close()
	checkFIFO(t, tr, 200, 2*time.Second)
	if got := tr.Stats().ChaosInjected; got != 0 {
		t.Errorf("clean chaos injected %d drops", got)
	}
}

func TestChaosLossIsCountedAsInjected(t *testing.T) {
	tr := NewChaos(NewInmem(), ChaosOptions{Default: ChaosLink{Loss: 1}})
	defer tr.Close()
	a, b := ids.Named("a"), ids.Named("b")
	var s sink
	if err := tr.Register(a, func(ids.ProcID, Message) {}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Register(b, s.handler); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		tr.Send(a, b, Message{MsgID: int64(i + 1), Payload: fifoPayload{N: i}})
	}
	if s.len() != 0 {
		t.Errorf("total loss delivered %d frames", s.len())
	}
	st := tr.Stats()
	if st.ChaosInjected != 50 {
		t.Errorf("ChaosInjected = %d, want 50", st.ChaosInjected)
	}
	if st.UnknownPeer != 0 || st.QueueSaturated != 0 {
		t.Errorf("chaos drops leaked into inner buckets: %+v", st)
	}
}

func TestChaosBeaconLossSparesReliableFrames(t *testing.T) {
	// BeaconLoss drops beacon-class frames only. An unrecorded (MsgID 0)
	// frame of a non-beacon payload — the shape of every application-
	// layer send — rides the reliable channel and must arrive.
	tr := NewChaos(NewInmem(), ChaosOptions{Default: ChaosLink{BeaconLoss: 1}})
	defer tr.Close()
	a, b := ids.Named("a"), ids.Named("b")
	var s sink
	if err := tr.Register(a, func(ids.ProcID, Message) {}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Register(b, s.handler); err != nil {
		t.Fatal(err)
	}
	tr.Send(a, b, Message{Payload: hb{}}) // hb is a registered beacon (bench_test.go)
	tr.Send(a, b, Message{Payload: fifoPayload{N: 7}})
	waitFor(t, 2*time.Second, func() bool { return s.len() > 0 }, "the non-beacon frame")
	if p, ok := s.msg(0).Payload.(fifoPayload); s.len() != 1 || !ok || p.N != 7 {
		t.Errorf("delivered %d frames, first %#v; want only fifoPayload{N: 7}", s.len(), s.msg(0).Payload)
	}
	if got := tr.Stats().ChaosInjected; got != 1 {
		t.Errorf("ChaosInjected = %d, want 1 (the beacon)", got)
	}
}

func TestChaosAsymmetricPartition(t *testing.T) {
	// Block a→b only: b still reaches a — the asymmetric half-open
	// failure real networks produce and global fail-stop models cannot.
	tr := NewChaos(NewInmem(), ChaosOptions{})
	defer tr.Close()
	a, b := ids.Named("a"), ids.Named("b")
	var atB, atA sink
	if err := tr.Register(a, atA.handler); err != nil {
		t.Fatal(err)
	}
	if err := tr.Register(b, atB.handler); err != nil {
		t.Fatal(err)
	}
	tr.SetLink(a, b, ChaosLink{Blocked: true})
	tr.Send(a, b, Message{MsgID: 1, Payload: fifoPayload{N: 0}})
	tr.Send(b, a, Message{MsgID: 2, Payload: fifoPayload{N: 1}})
	waitFor(t, time.Second, func() bool { return atA.len() == 1 }, "b→a delivery")
	if atB.len() != 0 {
		t.Errorf("blocked direction delivered %d frames", atB.len())
	}
	if got := tr.Stats().ChaosInjected; got != 1 {
		t.Errorf("ChaosInjected = %d, want 1", got)
	}
}

func TestChaosPartitionAndHeal(t *testing.T) {
	tr := NewChaos(NewInmem(), ChaosOptions{})
	defer tr.Close()
	a, b := ids.Named("a"), ids.Named("b")
	var s sink
	if err := tr.Register(a, func(ids.ProcID, Message) {}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Register(b, s.handler); err != nil {
		t.Fatal(err)
	}
	tr.Partition(a, b)
	tr.Send(a, b, Message{MsgID: 1, Payload: fifoPayload{N: 0}})
	tr.Heal(a, b)
	tr.Send(a, b, Message{MsgID: 2, Payload: fifoPayload{N: 1}})
	waitFor(t, time.Second, func() bool { return s.len() == 1 }, "post-heal delivery")
	if m := s.msg(0); m.MsgID != 2 {
		t.Errorf("delivered MsgID %d, want only the post-heal frame", m.MsgID)
	}
}

func TestChaosDelayDefersDelivery(t *testing.T) {
	const delay = 30 * time.Millisecond
	tr := NewChaos(NewInmem(), ChaosOptions{Default: ChaosLink{Delay: delay}})
	defer tr.Close()
	a, b := ids.Named("a"), ids.Named("b")
	var s sink
	if err := tr.Register(a, func(ids.ProcID, Message) {}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Register(b, s.handler); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	tr.Send(a, b, Message{MsgID: 1, Payload: fifoPayload{N: 0}})
	if s.len() != 0 && time.Since(start) < delay {
		t.Fatal("frame delivered before its delay elapsed")
	}
	waitFor(t, 2*time.Second, func() bool { return s.len() == 1 }, "delayed delivery")
	if elapsed := time.Since(start); elapsed < delay {
		t.Errorf("delivered after %v, configured delay %v", elapsed, delay)
	}
}

func TestChaosBurstWindowsDropEverything(t *testing.T) {
	// A 25ms total outage every 50ms: a steady 1ms send stream must see
	// both delivered frames and injected drops.
	tr := NewChaos(NewInmem(), ChaosOptions{
		Default: ChaosLink{BurstEvery: 50 * time.Millisecond, BurstFor: 25 * time.Millisecond},
	})
	defer tr.Close()
	a, b := ids.Named("a"), ids.Named("b")
	var s sink
	if err := tr.Register(a, func(ids.ProcID, Message) {}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Register(b, s.handler); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 150; i++ {
		tr.Send(a, b, Message{MsgID: int64(i + 1), Payload: fifoPayload{N: i}})
		time.Sleep(time.Millisecond)
	}
	delivered, injected := s.len(), tr.Stats().ChaosInjected
	if delivered == 0 {
		t.Error("burst link delivered nothing — outage never ends")
	}
	if injected == 0 {
		t.Error("burst link dropped nothing — outage never happens")
	}
	if int64(delivered)+injected != 150 {
		t.Errorf("delivered %d + injected %d ≠ 150 sent", delivered, injected)
	}
}

func TestChaosStallProcessFreezesThenThaws(t *testing.T) {
	// StallProcess must hold — not drop — every frame touching the
	// stalled process, releasing them in send order when the stall ends:
	// the wire silhouette of a GC pause, with §2.1 FIFO intact.
	tr := NewChaos(NewInmem(), ChaosOptions{})
	defer tr.Close()
	a, b := ids.Named("a"), ids.Named("b")
	type arrival struct {
		n  int
		at time.Time
	}
	var mu sync.Mutex
	var got []arrival
	if err := tr.Register(a, func(ids.ProcID, Message) {}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Register(b, func(_ ids.ProcID, m Message) {
		mu.Lock()
		got = append(got, arrival{n: m.Payload.(fifoPayload).N, at: time.Now()})
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}

	const stall = 60 * time.Millisecond
	start := time.Now()
	tr.StallProcess(a, stall)
	// Frames sent during the stall (including an MsgID-0 beacon shape)…
	tr.Send(a, b, Message{MsgID: 0, Payload: fifoPayload{N: 1}})
	tr.Send(a, b, Message{MsgID: 2, Payload: fifoPayload{N: 2}})
	time.Sleep(stall / 3)
	// …and one sent mid-stall must all thaw together, in order.
	tr.Send(a, b, Message{MsgID: 3, Payload: fifoPayload{N: 3}})

	mu.Lock()
	early := len(got)
	mu.Unlock()
	if early != 0 {
		t.Fatalf("%d frames leaked through an active stall", early)
	}

	deadline := time.After(5 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == 3 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("only %d/3 frames thawed after the stall", n)
		case <-time.After(time.Millisecond):
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for i, ar := range got {
		if ar.n != i+1 {
			t.Errorf("arrival %d = frame %d; thaw broke FIFO", i, ar.n)
		}
		if ar.at.Sub(start) < stall {
			t.Errorf("frame %d delivered %v after stall start, want ≥ %v", ar.n, ar.at.Sub(start), stall)
		}
	}
	if got := tr.Stats().ChaosInjected; got != 0 {
		t.Errorf("stall injected %d drops; it must hold frames, not drop them", got)
	}
}

func TestChaosStallExpiresAndCleansUp(t *testing.T) {
	// After the stall window passes, new frames flow promptly again and
	// the stall record is pruned.
	tr := NewChaos(NewInmem(), ChaosOptions{})
	defer tr.Close()
	a, b := ids.Named("a"), ids.Named("b")
	var s sink
	if err := tr.Register(a, func(ids.ProcID, Message) {}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Register(b, s.handler); err != nil {
		t.Fatal(err)
	}
	tr.StallProcess(a, 10*time.Millisecond)
	time.Sleep(30 * time.Millisecond)
	tr.Send(a, b, Message{MsgID: 1, Payload: fifoPayload{N: 0}})

	deadline := time.Now().Add(5 * time.Second)
	for s.len() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("post-stall frame not delivered")
		}
		time.Sleep(time.Millisecond)
	}
	tr.mu.Lock()
	left := len(tr.stalled)
	tr.mu.Unlock()
	if left != 0 {
		t.Errorf("%d expired stall records not pruned", left)
	}
}

func TestChaosStackedWrappersSumInjectedDrops(t *testing.T) {
	// Chaos wraps any Transport — including another Chaos. Each layer's
	// deliberate drops must survive into the outer Stats.
	inner := NewChaos(NewInmem(), ChaosOptions{Default: ChaosLink{Loss: 1}})
	outer := NewChaos(inner, ChaosOptions{})
	defer outer.Close()
	a, b := ids.Named("a"), ids.Named("b")
	if err := outer.Register(a, func(ids.ProcID, Message) {}); err != nil {
		t.Fatal(err)
	}
	if err := outer.Register(b, func(ids.ProcID, Message) {}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		outer.Send(a, b, Message{MsgID: int64(i + 1), Payload: fifoPayload{N: i}})
	}
	if got := outer.Stats().ChaosInjected; got != 10 {
		t.Errorf("outer Stats().ChaosInjected = %d, want 10 (inner wrapper's drops)", got)
	}
}

func TestChaosReconfiguredLinkKeepsFIFO(t *testing.T) {
	// Once a channel has a delay line, later frames ride it even after the
	// link is reconfigured to zero delay — a frame sampled at d=0 must not
	// overtake queued predecessors.
	tr := NewChaos(NewInmem(), ChaosOptions{Seed: 11})
	defer tr.Close()
	a, b := ids.Named("a"), ids.Named("b")
	var s sink
	if err := tr.Register(a, func(ids.ProcID, Message) {}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Register(b, s.handler); err != nil {
		t.Fatal(err)
	}
	tr.SetLink(a, b, ChaosLink{Delay: 5 * time.Millisecond, Jitter: 5 * time.Millisecond})
	for i := 0; i < 100; i++ {
		tr.Send(a, b, Message{MsgID: int64(i + 1), Payload: fifoPayload{N: i}})
	}
	tr.SetLink(a, b, ChaosLink{})
	for i := 100; i < 200; i++ {
		tr.Send(a, b, Message{MsgID: int64(i + 1), Payload: fifoPayload{N: i}})
	}
	waitFor(t, 10*time.Second, func() bool { return s.len() == 200 }, "all frames")
	for i := 0; i < 200; i++ {
		if m := s.msg(i); m.MsgID != int64(i+1) {
			t.Fatalf("position %d: MsgID %d — FIFO violated across reconfiguration", i, m.MsgID)
		}
	}
}
