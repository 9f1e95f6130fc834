package fd

// The live runtime's F1 policy. The paper abstracts the failure-detection
// mechanism entirely (§2.2): any mechanism that eventually notices a real
// crash satisfies F1, and wrong detections are legal — GMP's whole
// contribution is staying consistent despite them. So the runtime needs
// one well-measured policy, not a menu: the fixed timeout below,
// optionally wrapped by Hysteresis (hysteresis.go). Detector is the seam
// that keeps the policy testable on synthetic arrival schedules.

import (
	"time"

	"procgroup/internal/ids"
)

// Detector is the live runtime's pluggable F1 policy: it watches traffic
// arrival per peer and answers "should q be suspected now?". One Detector
// instance serves one process and is driven entirely from that process's
// event loop, so implementations need no internal locking.
//
// Time is always passed in rather than read from the clock, which keeps
// detectors deterministic under test: synthetic arrival schedules exercise
// exactly the code the live runtime runs.
type Detector interface {
	// Observe records that protocol traffic from q arrived at time at.
	// Every receive proves liveness, and any open suspicion of q was
	// therefore a mistake — the signal Hysteresis counts and penalizes.
	Observe(q ids.ProcID, at time.Time)
	// ObserveBeacon records that a substrate heartbeat from q arrived at
	// time at. Beacons prove liveness exactly like protocol traffic; they
	// are a separate call because the live runtime emits them at a fixed
	// cadence on every transport (one per heartbeat interval, whatever
	// protocol traffic went out in between), so a caller that measures
	// beacon arrivals — the benchmark's per-layer trace does — can tell
	// the two evidence streams apart.
	ObserveBeacon(q ids.ProcID, at time.Time)
	// Suspicion reports the current suspicion level of q at time at — a
	// monotone function of the silence observed so far: elapsed silence
	// over the threshold, 1.0 at the suspicion boundary. The level is
	// recorded on the Faulty trace event when a suspicion fires, so
	// traces show how far past the threshold the peer had gone.
	Suspicion(q ids.ProcID, at time.Time) float64
	// Suspect reports whether q should be suspected at time at. A peer
	// never observed before is registered as first seen at `at` and not
	// suspected — the grace the pre-extraction live runtime gave newly
	// installed members.
	Suspect(q ids.ProcID, at time.Time) bool
	// Rearm refreshes q's silence clock after the caller detected its
	// OWN scheduling stall (or began watching q afresh): the silence it
	// observed is unreliable, but no traffic actually arrived, so unlike
	// Observe it proves nothing about q — Hysteresis drops an open
	// crossing on Rearm without charging q a mistake or a flap.
	Rearm(q ids.ProcID, at time.Time)
	// Retain drops tracking state for every peer not in members; the
	// live runtime calls it at each view installation so departed
	// processes stop consuming memory.
	Retain(members []ids.ProcID)
}

// Factory builds one Detector per process; it is what GroupOptions carries
// so every node of a live cluster gets its own independent instance.
type Factory func() Detector

// Timeout is the fixed-threshold detector extracted verbatim from the
// pre-refactor live runtime: q is suspected once the silence since its
// last observed traffic strictly exceeds After. It is the paper's
// simplest F1 realization — one global constant, no per-link adaptation.
type Timeout struct {
	// After is the silence threshold.
	After time.Duration

	lastSeen map[ids.ProcID]time.Time
}

// NewTimeout builds a fixed-threshold detector.
func NewTimeout(after time.Duration) *Timeout {
	return &Timeout{After: after, lastSeen: make(map[ids.ProcID]time.Time)}
}

// NewTimeoutFactory returns a Factory producing independent NewTimeout
// detectors — the live runtime's default when no detector is configured.
func NewTimeoutFactory(after time.Duration) Factory {
	return func() Detector { return NewTimeout(after) }
}

// Observe implements Detector.
func (t *Timeout) Observe(q ids.ProcID, at time.Time) { t.lastSeen[q] = at }

// ObserveBeacon implements Detector; the fixed-threshold policy makes no
// distinction between beacon and protocol traffic.
func (t *Timeout) ObserveBeacon(q ids.ProcID, at time.Time) { t.lastSeen[q] = at }

// Rearm implements Detector; for the timeout it is a plain refresh.
func (t *Timeout) Rearm(q ids.ProcID, at time.Time) { t.lastSeen[q] = at }

// Suspicion implements Detector: elapsed silence as a fraction of the
// threshold (1.0 = at the suspicion boundary). An untracked peer is 0.
func (t *Timeout) Suspicion(q ids.ProcID, at time.Time) float64 {
	seen, ok := t.lastSeen[q]
	if !ok || t.After <= 0 {
		return 0
	}
	return float64(at.Sub(seen)) / float64(t.After)
}

// Suspect implements Detector. The first check of an unknown peer starts
// its silence clock and reports healthy — exactly the `lastSeen[m] = now;
// continue` the live runtime's beat loop performed before extraction.
func (t *Timeout) Suspect(q ids.ProcID, at time.Time) bool {
	seen, ok := t.lastSeen[q]
	if !ok {
		t.lastSeen[q] = at
		return false
	}
	return at.Sub(seen) > t.After
}

// Retain implements Detector.
func (t *Timeout) Retain(members []ids.ProcID) { retainKeys(t.lastSeen, members) }

// retainKeys prunes every key of m not listed in members — the shared
// Retain implementation of all detectors.
func retainKeys[V any](m map[ids.ProcID]V, members []ids.ProcID) {
	keep := make(map[ids.ProcID]bool, len(members))
	for _, q := range members {
		keep[q] = true
	}
	for q := range m {
		if !keep[q] {
			delete(m, q)
		}
	}
}
