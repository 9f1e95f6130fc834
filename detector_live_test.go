package procgroup_test

// Public-API coverage of detector selection and the chaos harness: a live
// group under the fixed timeout wrapped in hysteresis, over a
// chaos-degraded transport, must exclude a killed member — everything
// reachable from the root package alone, as an application would wire it.

import (
	"testing"
	"time"

	"procgroup"
)

func TestHysteresisDetectorOverChaosTransportFacade(t *testing.T) {
	chaos := procgroup.NewChaosTransport(procgroup.NewInmemTransport(), procgroup.ChaosTransportOptions{
		Seed: 1,
		Default: procgroup.ChaosLink{
			Jitter:     5 * time.Millisecond,
			BeaconLoss: 0.05,
		},
	})
	stats := &procgroup.HysteresisStats{}
	g := procgroup.StartGroup(procgroup.GroupOptions{
		N:              5,
		HeartbeatEvery: 5 * time.Millisecond,
		// 30ms threshold plus a 10ms dwell: -race slowdowns and the 5ms
		// chaos jitter must not read as death.
		Detector: procgroup.NewHysteresisDetector(
			procgroup.NewFixedTimeoutDetector(30*time.Millisecond),
			procgroup.HysteresisOptions{Dwell: 10 * time.Millisecond, FlapPenalty: 1, Stats: stats},
		),
		Transport: chaos,
	})
	defer g.Stop()

	if _, err := g.WaitConverged(10 * time.Second); err != nil {
		t.Fatalf("bootstrap under chaos: %v", err)
	}
	victim := procgroup.Named("p5")
	g.Kill(victim)
	v, err := g.WaitConverged(15 * time.Second)
	if err != nil {
		t.Fatalf("exclusion under chaos: %v", err)
	}
	if v.Has(victim) {
		t.Errorf("killed member still in %v", v)
	}
	// The exclusion came through the wrapper: some crossing survived its
	// dwell and surfaced as a suspicion.
	if stats.Confirms.Load() == 0 {
		t.Error("killed member excluded without a confirmed hysteresis crossing")
	}
	if g.TransportStats().ChaosInjected == 0 {
		t.Error("chaos transport injected no drops despite 5% beacon loss")
	}

	// Runtime reconfiguration: partition the new coordinator's link to
	// one member asymmetrically and heal it; the group must stay converged
	// afterwards (a short half-open glitch is below everyone's patience).
	chaos.Partition(procgroup.Named("p1"), procgroup.Named("p2"))
	time.Sleep(10 * time.Millisecond)
	chaos.Heal(procgroup.Named("p1"), procgroup.Named("p2"))
	if _, err := g.WaitConverged(10 * time.Second); err != nil {
		t.Fatalf("after partition heal: %v", err)
	}
}
