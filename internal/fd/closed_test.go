package fd

import (
	"testing"
	"time"

	"procgroup/internal/ids"
)

// The benchmark's timing: 80 ms threshold on 10 ms beats, so closed-stream
// evidence lowers the bar to 20 ms — two beats.
const closedAfter = 80 * time.Millisecond

func TestClosedEvidenceSuspectsPastQuarterThreshold(t *testing.T) {
	d := NewTimeout(closedAfter)
	q := ids.Named("q")
	d.ObserveBeacon(q, at(0))
	d.Closed(q, at(5*time.Millisecond))
	if d.Suspect(q, at(closedAfter/4)) {
		t.Error("suspected at exactly After/4 of silence (must be strict >)")
	}
	if !d.Suspect(q, at(closedAfter/4+time.Nanosecond)) {
		t.Error("not suspected past After/4 of silence with closed-stream evidence")
	}
}

func TestClosedEvidenceNeverSuspectsABeaconingPeer(t *testing.T) {
	// A spurious close about a live peer: beacons keep arriving every
	// 10 ms, so silence never reaches After/4 and nothing is suspected.
	var stats HysteresisStats
	h := NewHysteresis(NewTimeout(closedAfter), HysteresisOptions{Dwell: 20 * time.Millisecond, Stats: &stats})
	q := ids.Named("q")
	h.ObserveBeacon(q, at(0))
	h.Closed(q, at(time.Millisecond))
	for ms := 10; ms <= 200; ms += 10 {
		h.ObserveBeacon(q, at(time.Duration(ms)*time.Millisecond))
		if h.Suspect(q, at(time.Duration(ms+9)*time.Millisecond)) {
			t.Fatalf("beaconing peer suspected at %dms after a spurious close", ms+9)
		}
	}
	if c := stats.Crossings.Load(); c != 0 {
		t.Errorf("crossings = %d, want 0", c)
	}
}

func TestClosedEvidenceIsNotClearedByTraffic(t *testing.T) {
	// Observe does not clear the evidence: silence alone decides, so a
	// peer that spoke once after the close and then went quiet is still
	// judged by the lowered bar.
	d := NewTimeout(closedAfter)
	q := ids.Named("q")
	d.ObserveBeacon(q, at(0))
	d.Closed(q, at(time.Millisecond))
	d.Observe(q, at(10*time.Millisecond))
	if !d.Suspect(q, at(31*time.Millisecond)) {
		t.Error("not suspected 21ms after its last traffic inside the evidence window")
	}
}

func TestClosedEvidenceExpiresAfterOneThreshold(t *testing.T) {
	d := NewTimeout(closedAfter)
	q := ids.Named("q")
	d.ObserveBeacon(q, at(0))
	d.Closed(q, at(0))
	d.ObserveBeacon(q, at(85*time.Millisecond))
	// 25 ms of silence, but the evidence is 110 ms old: normal threshold.
	if d.Suspect(q, at(110*time.Millisecond)) {
		t.Error("expired evidence still lowered the threshold")
	}
	if d.Suspect(q, at(85*time.Millisecond+closedAfter)) {
		t.Error("suspected at exactly the normal threshold")
	}
	if !d.Suspect(q, at(85*time.Millisecond+closedAfter+time.Nanosecond)) {
		t.Error("not suspected past the normal threshold")
	}
}

func TestClosedEvidenceAboutUntrackedPeerIgnored(t *testing.T) {
	d := NewTimeout(closedAfter)
	q := ids.Named("q")
	d.Closed(q, at(0)) // never observed: ignored
	if d.Suspect(q, at(time.Millisecond)) {
		t.Fatal("unknown peer suspected on first check")
	}
	if d.Suspect(q, at(30*time.Millisecond)) {
		t.Error("a close about a never-observed peer lowered its threshold")
	}
	if len(d.closedAt) != 0 {
		t.Errorf("tracking evidence for %d untracked peers", len(d.closedAt))
	}
}

func TestHysteresisConfirmsClosedEvidenceWithoutDwell(t *testing.T) {
	var stats HysteresisStats
	dwell := 20 * time.Millisecond
	h := NewHysteresis(NewTimeout(closedAfter), HysteresisOptions{Dwell: dwell, FlapPenalty: 1, Stats: &stats})
	crashed, silent := ids.Named("crashed"), ids.Named("silent")
	h.ObserveBeacon(crashed, at(0))
	h.ObserveBeacon(silent, at(0))
	h.Closed(crashed, at(2*time.Millisecond))
	// The evidence crossing surfaces on the first check past After/4.
	if !h.Suspect(crashed, at(21*time.Millisecond)) {
		t.Error("closed-stream crossing not confirmed at once")
	}
	// Without evidence the same silence pays the full threshold and dwell.
	if h.Suspect(silent, at(closedAfter+time.Millisecond)) {
		t.Error("plain crossing confirmed without its dwell")
	}
	if !h.Suspect(silent, at(closedAfter+time.Millisecond+dwell)) {
		t.Error("plain crossing not confirmed after its dwell")
	}
	if c := stats.Confirms.Load(); c != 2 {
		t.Errorf("confirms = %d, want 2", c)
	}
}
