package live

import (
	"testing"
	"time"

	"procgroup/internal/check"
	"procgroup/internal/event"
	"procgroup/internal/fd"
	"procgroup/internal/ids"
	"procgroup/internal/transport"
)

// TestDetectionLatencyRespectsSuspectAfter pins the behavior the
// fixed-timeout extraction must preserve: no node can suspect a killed
// member before its silence strictly exceeds SuspectAfter, so the
// exclusion view cannot converge earlier than that. (The fd package's
// TestTimeoutMatchesPreRefactorBeatLoop pins the decision logic
// bit-for-bit; this pins the end-to-end timing floor.)
func TestDetectionLatencyRespectsSuspectAfter(t *testing.T) {
	opts := fast(5)
	c := Start(opts)
	defer c.Stop()
	if _, err := c.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	victim := ids.Named("p5")
	start := time.Now()
	c.Kill(victim)
	v, err := c.WaitConverged(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if v.Has(victim) {
		t.Fatalf("victim still in %v", v)
	}
	if elapsed := time.Since(start); elapsed < opts.SuspectAfter {
		t.Errorf("excluded after %v, below the %v suspicion threshold", elapsed, opts.SuspectAfter)
	}
}

// TestTightThresholdStillDetects pins the stall guard's floor: with
// SuspectAfter/2 below 1.5 beat periods (a legal configuration), an
// unfloored guard would classify ordinary beats as stalls — silently
// disabling detection and leaving dead members in the view forever. Here
// SuspectAfter/2 = 22.5ms sits under the 30ms floor, so the floor is
// what keeps detection alive.
func TestTightThresholdStillDetects(t *testing.T) {
	c := Start(Options{N: 5, HeartbeatEvery: 20 * time.Millisecond, SuspectAfter: 45 * time.Millisecond})
	defer c.Stop()
	if _, err := c.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	victim := ids.Named("p5")
	c.Kill(victim)
	v, err := c.WaitConverged(15 * time.Second)
	if err != nil {
		t.Fatalf("tight-threshold group never excluded the dead member: %v", err)
	}
	if v.Has(victim) {
		t.Fatalf("victim still in %v", v)
	}
}

func TestFaultyEventsCarrySuspicionLevel(t *testing.T) {
	c := Start(fast(5))
	defer c.Stop()
	if _, err := c.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	c.Kill(ids.Named("p5"))
	if _, err := c.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// At least one Faulty event must carry the detector's grade: for the
	// fixed-timeout detector that is elapsed/threshold, which is > 1 by
	// the time the suspicion fires. Gossip-propagated Faulty events stay
	// ungraded (level 0).
	found := false
	for _, e := range c.Recorder().Events() {
		if e.Kind == event.Faulty && e.Level > 1 {
			found = true
			break
		}
	}
	if !found {
		t.Error("no Faulty event carries a detector suspicion level > 1")
	}
}

func TestClusterConvergesUnderChaosJitter(t *testing.T) {
	// The live chaos harness end to end: delivery jitter up to one full
	// heartbeat interval plus 10% beacon loss on every link, under the
	// timeout wrapped in hysteresis. (Beacon loss stresses the
	// detector's signal without violating the §2.1 reliable-channel
	// assumption protocol traffic runs on.) The group must boot, exclude
	// a killed member, and the trace must still certify GMP.
	opts := fast(5)
	opts.Detector = fd.NewHysteresisFactory(fd.NewTimeoutFactory(opts.SuspectAfter),
		fd.HysteresisOptions{Dwell: 2 * opts.HeartbeatEvery, FlapPenalty: 1})
	opts.Transport = transport.NewChaos(transport.NewInmem(), transport.ChaosOptions{
		Seed:    1,
		Default: transport.ChaosLink{Jitter: opts.HeartbeatEvery, BeaconLoss: 0.10},
	})
	c := Start(opts)
	defer c.Stop()
	if _, err := c.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	victim := ids.Named("p4")
	c.Kill(victim)
	v, err := c.WaitConverged(15 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if v.Has(victim) {
		t.Fatalf("victim still in %v", v)
	}
	running := ids.NewSet(c.Running()...)
	rep := check.Run(check.Input{
		Recorder: c.Recorder(),
		Initial:  ids.Gen(5),
		Alive:    running.Has,
	})
	if !rep.OK() {
		t.Errorf("chaos run violates GMP:\n%v", rep)
	}
	if injected := c.TransportStats().ChaosInjected; injected == 0 {
		t.Error("chaos transport with 10% beacon loss injected no drops")
	}
}

func TestChaosPartitionDelaysExclusionUntilHeal(t *testing.T) {
	// Asymmetrically partition one member away from everyone: the group
	// excludes it (silence is silence); the partitioned member, which
	// still cannot be heard, must converge out. This is the half-open
	// failure the simulator's netsim schedules — now live.
	opts := fast(4)
	ch := transport.NewChaos(transport.NewInmem(), transport.ChaosOptions{})
	opts.Transport = ch
	c := Start(opts)
	defer c.Stop()
	if _, err := c.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	victim := ids.Named("p4")
	// Block everything the victim sends; it still hears the group.
	for _, p := range []string{"p1", "p2", "p3"} {
		ch.SetLink(victim, ids.Named(p), transport.ChaosLink{Blocked: true})
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		v := c.ViewOf(ids.Named("p1"))
		if v != nil && !v.Has(victim) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("survivors never excluded the silenced member")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
