package fd

import (
	"testing"
	"time"

	"procgroup/internal/ids"
)

func TestHysteresisDwellAbsorbsTransientCrossing(t *testing.T) {
	// A crossing shorter than the dwell never surfaces: the inner detector
	// suspects, traffic resumes, and the wrapper reports a flap instead of
	// a suspicion.
	var stats HysteresisStats
	h := NewHysteresis(NewTimeout(20*time.Millisecond), HysteresisOptions{
		Dwell: 15 * time.Millisecond,
		Stats: &stats,
	})
	q := ids.Named("q")
	h.ObserveBeacon(q, t0)

	// 25ms of silence: inner crosses (>20ms) but dwell (15ms more) has not
	// elapsed since the crossing was first seen.
	at := t0.Add(25 * time.Millisecond)
	if h.Suspect(q, at) {
		t.Fatal("confirmed before the dwell elapsed")
	}
	// 10ms later, still inside the dwell; then traffic resumes.
	if h.Suspect(q, at.Add(10*time.Millisecond)) {
		t.Fatal("confirmed mid-dwell")
	}
	h.ObserveBeacon(q, at.Add(12*time.Millisecond))
	if h.Suspect(q, at.Add(14*time.Millisecond)) {
		t.Fatal("suspected after the peer proved alive")
	}
	if got := stats.Crossings.Load(); got != 1 {
		t.Errorf("crossings = %d, want 1", got)
	}
	if got := stats.Flaps.Load(); got != 1 {
		t.Errorf("flaps = %d, want 1", got)
	}
	if got := stats.Confirms.Load(); got != 0 {
		t.Errorf("confirms = %d, want 0", got)
	}
	// The mistake lasted from the first Suspect observation of the
	// crossing (25ms) to recovery (37ms).
	if d := stats.MeanMistake(); d != 12*time.Millisecond {
		t.Errorf("mean mistake duration = %v, want 12ms", d)
	}
}

func TestHysteresisConfirmsSustainedSilence(t *testing.T) {
	// A real crash: the inner detector stays suspicious, so after the
	// dwell the wrapper confirms — detection is delayed by at most one
	// dwell, never suppressed.
	var stats HysteresisStats
	h := NewHysteresis(NewTimeout(20*time.Millisecond), HysteresisOptions{
		Dwell: 15 * time.Millisecond,
		Stats: &stats,
	})
	q := ids.Named("q")
	h.ObserveBeacon(q, t0)

	crossed := t0.Add(25 * time.Millisecond)
	if h.Suspect(q, crossed) {
		t.Fatal("confirmed before the dwell elapsed")
	}
	if !h.Suspect(q, crossed.Add(15*time.Millisecond)) {
		t.Fatal("not confirmed after the dwell elapsed under sustained silence")
	}
	if got := stats.Confirms.Load(); got != 1 {
		t.Errorf("confirms = %d, want 1", got)
	}
	// Confirmation is sticky while silence lasts.
	if !h.Suspect(q, crossed.Add(40*time.Millisecond)) {
		t.Fatal("confirmation did not stick under continued silence")
	}
}

func TestHysteresisZeroDwellIsMeasuredPassthrough(t *testing.T) {
	// Dwell 0: behavior is the raw inner detector's, but crossings and
	// mistakes are still counted — the E22 "hysteresis off" arms rely on
	// this to measure mistake durations without changing behavior.
	var stats HysteresisStats
	h := NewHysteresis(NewTimeout(20*time.Millisecond), HysteresisOptions{Stats: &stats})
	q := ids.Named("q")
	h.ObserveBeacon(q, t0)

	at := t0.Add(25 * time.Millisecond)
	if !h.Suspect(q, at) {
		t.Fatal("zero-dwell wrapper did not confirm on the first crossing")
	}
	h.ObserveBeacon(q, at.Add(5*time.Millisecond))
	if h.Suspect(q, at.Add(6*time.Millisecond)) {
		t.Fatal("suspected after recovery")
	}
	if got := stats.ConfirmedRecoveries.Load(); got != 1 {
		t.Errorf("confirmed recoveries = %d, want 1", got)
	}
	if got := stats.Mistakes.Load(); got != 1 {
		t.Errorf("mistakes = %d, want 1", got)
	}
}

func TestHysteresisFlapPenaltyGrowsDwell(t *testing.T) {
	// A repeat offender earns progressively more patience: after one flap
	// the effective dwell doubles (penalty 1.0), so a second crossing of
	// the same length that would have confirmed at base dwell is absorbed.
	h := NewHysteresis(NewTimeout(20*time.Millisecond), HysteresisOptions{
		Dwell:           10 * time.Millisecond,
		FlapPenalty:     1,
		PenaltyHalfLife: time.Hour, // effectively no decay inside the test
	})
	q := ids.Named("q")
	h.ObserveBeacon(q, t0)

	// First crossing: confirmed at base dwell.
	c1 := t0.Add(25 * time.Millisecond)
	h.Suspect(q, c1)
	if !h.Suspect(q, c1.Add(10*time.Millisecond)) {
		t.Fatal("first crossing not confirmed at base dwell")
	}
	// The peer proves alive: flap score 1.
	h.ObserveBeacon(q, c1.Add(12*time.Millisecond))

	// Second crossing: at base dwell it must NOT confirm (effective dwell
	// is now 20ms), at twice the base dwell it must.
	c2 := c1.Add(12*time.Millisecond + 25*time.Millisecond)
	h.Suspect(q, c2)
	if h.Suspect(q, c2.Add(10*time.Millisecond)) {
		t.Fatal("second crossing confirmed at base dwell despite flap penalty")
	}
	if !h.Suspect(q, c2.Add(20*time.Millisecond)) {
		t.Fatal("second crossing not confirmed at the doubled dwell")
	}
}

func TestHysteresisPenaltyDecays(t *testing.T) {
	// The flap score halves per half-life: long after the flapping
	// stopped, the peer is back to (almost) base dwell.
	h := NewHysteresis(NewTimeout(20*time.Millisecond), HysteresisOptions{
		Dwell:           10 * time.Millisecond,
		FlapPenalty:     1,
		PenaltyHalfLife: 100 * time.Millisecond,
	})
	q := ids.Named("q")
	h.ObserveBeacon(q, t0)
	c1 := t0.Add(25 * time.Millisecond)
	h.Suspect(q, c1)
	h.ObserveBeacon(q, c1.Add(2*time.Millisecond)) // flap: score 1

	// 10 half-lives later the score is ~1/1024: effective dwell ≈ base.
	c2 := c1.Add(time.Second)
	h.ObserveBeacon(q, c2)
	c3 := c2.Add(25 * time.Millisecond)
	h.Suspect(q, c3)
	if !h.Suspect(q, c3.Add(11*time.Millisecond)) {
		t.Fatal("decayed flap score still inflating the dwell after 10 half-lives")
	}
}

func TestHysteresisRearmDropsCrossingWithoutMistake(t *testing.T) {
	// Our own stall fabricated the silence: Rearm must close the open
	// crossing without charging the peer a flap or a mistake.
	var stats HysteresisStats
	h := NewHysteresis(NewTimeout(20*time.Millisecond), HysteresisOptions{
		Dwell:       10 * time.Millisecond,
		FlapPenalty: 1,
		Stats:       &stats,
	})
	q := ids.Named("q")
	h.ObserveBeacon(q, t0)
	h.Suspect(q, t0.Add(25*time.Millisecond)) // crossing opens
	h.Rearm(q, t0.Add(26*time.Millisecond))

	if got := stats.Mistakes.Load(); got != 0 {
		t.Errorf("mistakes after Rearm = %d, want 0 (no liveness was proven)", got)
	}
	if h.Suspect(q, t0.Add(30*time.Millisecond)) {
		t.Fatal("suspected right after Rearm refreshed the silence clock")
	}
	// And the dropped crossing earned no penalty: the next real crossing
	// confirms at base dwell.
	h.ObserveBeacon(q, t0.Add(35*time.Millisecond))
	c := t0.Add(35*time.Millisecond + 25*time.Millisecond)
	h.Suspect(q, c)
	if !h.Suspect(q, c.Add(10*time.Millisecond)) {
		t.Fatal("crossing after Rearm did not confirm at base dwell")
	}
}
