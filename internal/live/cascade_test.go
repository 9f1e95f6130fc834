package live

// Regression test for the false-suspicion cascade (§4.3): on a starved
// machine (one core, GC pause, batch-apply burst) a member's event loop
// can stall past SuspectAfter without the member being remotely faulty.
// Its peers read the stall as silence, exclude it, and on resume the
// member receives the view change that removes it and quits itself — an
// innocent process destroyed by scheduling noise. The fix under test is
// the hysteresis dwell: a threshold crossing must survive a further
// dwell of continuous silence before it surfaces as a suspicion, so a
// stall shorter than SuspectAfter+Dwell is forgiven when the beacons
// resume. The stall is injected deterministically by sleeping on the
// victim's own event loop (Query runs its closure there), which freezes
// beacons and receive processing exactly as starvation does.

import (
	"testing"
	"time"

	"procgroup/internal/core"
	"procgroup/internal/fd"
	"procgroup/internal/ids"
)

// stallLoop blocks p's event loop for d, simulating event-loop starvation.
func stallLoop(c *Cluster, p ids.ProcID, d time.Duration) bool {
	return c.Query(p, func(*core.Node) { time.Sleep(d) })
}

func TestStarvationStallCascadesWithoutHysteresis(t *testing.T) {
	// The baseline that motivated PR 9's slack-threshold workaround: with
	// a bare tight threshold, a 60ms loop stall against SuspectAfter=30ms
	// gets the victim excluded even though it comes right back.
	c := Start(fast(4))
	defer c.Stop()
	if _, err := c.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	victim := ids.Named("p3")
	if !stallLoop(c, victim, 60*time.Millisecond) {
		t.Fatal("victim unreachable before the stall")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if v := c.ViewOf(ids.Named("p1")); v != nil && !v.Has(victim) {
			break // excluded: the cascade the next test must prevent
		}
		if time.Now().After(deadline) {
			t.Skip("stall not observed as silence on this run; cascade baseline not reproducible")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestStarvationStallDoesNotCascadeWithHysteresis(t *testing.T) {
	// Same stall, same tight threshold, hysteresis on: the peers'
	// crossings must recover when the victim's beacons resume, the view
	// must not change, and nobody may quit. The shared stats prove the
	// scenario actually exercised the threshold (crossings happened) and
	// that the dwell absorbed all of them (nothing confirmed).
	stats := &fd.HysteresisStats{}
	opts := fast(4)
	opts.Detector = fd.NewHysteresisFactory(
		fd.NewTimeoutFactory(opts.SuspectAfter),
		fd.HysteresisOptions{Dwell: 200 * time.Millisecond, FlapPenalty: 1, Stats: stats},
	)
	c := Start(opts)
	defer c.Stop()
	v0, err := c.WaitConverged(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	victim := ids.Named("p3")
	// One stall is not always recovered by the victim's traffic: when the
	// observers' own loops run late (as under -race), their stall guard
	// re-arms the crossing, which closes it without charging a mistake.
	// So the stall repeats, a bounded number of times, until a crossing
	// has been recovered — and every stall must leave the group alone.
	for stall := 1; stall <= 5 && stats.Mistakes.Load() == 0; stall++ {
		if !stallLoop(c, victim, 60*time.Millisecond) {
			t.Fatalf("victim unreachable before stall %d", stall)
		}
		// Ride out the stall, the recovery, and a full dwell's worth of
		// margin during which a confirm would have fired if the dwell had
		// not held.
		time.Sleep(400 * time.Millisecond)

		if got := len(c.Running()); got != 4 {
			t.Fatalf("%d members running after stall %d, want 4 (someone quit)", got, stall)
		}
		v := c.ViewOf(ids.Named("p1"))
		if v == nil || !v.Has(victim) || v.Version() != v0.Version() {
			t.Fatalf("view changed across transient stall %d: %v (was %v)", stall, v, v0)
		}
		if got := stats.Confirms.Load(); got != 0 {
			t.Fatalf("%d crossings confirmed through the dwell by stall %d, want 0", got, stall)
		}
	}
	if stats.Crossings.Load() == 0 {
		t.Fatal("stall never crossed the threshold: the scenario did not bite")
	}
	if stats.Mistakes.Load() == 0 {
		t.Error("recovered crossings were not accounted as detector mistakes")
	}
}
