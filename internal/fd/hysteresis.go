package fd

// Suspicion hysteresis: the policy layer that fixes the false-suspicion
// cascade at its root. The paper (§2.2) permits wrong detections — GMP
// stays consistent despite them — but every wrong detection still costs a
// reconfiguration, and under production-shaped timing adversity (GC
// pauses, single-core starvation, flapping links at the detection
// threshold) a raw threshold detector converts each timing accident into
// a view change. PR 9 met exactly that: a starved-but-alive member was
// excluded and quit itself, and the kv bench papered over it by inflating
// SuspectAfter 80ms→250ms — buying patience for flapping peers by slowing
// detection of genuinely dead ones.
//
// Hysteresis decouples the two costs. The wrapped (inner) detector keeps
// its fast threshold; the wrapper only *confirms* a suspicion after the
// inner detector has held it continuously for a dwell period, and a peer
// that repeatedly crosses the threshold and then proves alive (a
// "flapper") earns progressively more dwell. A genuinely crashed peer
// pays one dwell of extra latency, once; a flapping peer is absorbed at
// the policy layer instead of being excluded again and again. Every
// crossing that recovers is, by definition, a detector mistake — the peer
// was alive — so the wrapper is also the measurement point for the QoS
// quantities E22 reports: mistake rate and mistake duration (Chen/Toueg
// via Dobre et al., PAPERS.md).

import (
	"math"
	"sync/atomic"
	"time"

	"procgroup/internal/ids"
)

// HysteresisOptions tunes the hysteresis wrapper. The zero value is a
// measurement-only passthrough: Dwell 0 confirms every inner crossing
// immediately (behaviorally identical to the raw inner detector) while
// Stats still counts crossings, flaps, and mistake durations.
type HysteresisOptions struct {
	// Dwell is the confirm-before-suspect delay: the inner detector must
	// report q suspect continuously for Dwell before the wrapper does.
	// Traffic from q during the dwell cancels the crossing (a flap).
	// Zero confirms immediately.
	Dwell time.Duration
	// FlapPenalty scales the extra dwell a flapping peer earns: the
	// effective dwell is Dwell·(1 + FlapPenalty·flapScore), where
	// flapScore counts recovered crossings and decays with a 30 s
	// half-life, and FlapPenalty·flapScore is capped at 8. Zero disables
	// the penalty.
	FlapPenalty float64
	// Stats, when non-nil, aggregates crossing/mistake accounting. The
	// same *HysteresisStats may be shared by every detector a Factory
	// builds, giving a cluster-wide view (the E22 harness does this).
	Stats *HysteresisStats
}

const (
	// maxPenalty caps FlapPenalty·flapScore so a long-lived flapper's
	// dwell stays bounded (a real crash of a former flapper must still
	// be detected promptly).
	maxPenalty = 8
	// penaltyHalfLife is the exponential half-life of flapScore: a peer
	// that stops flapping gradually pays back down to the base dwell.
	penaltyHalfLife = 30 * time.Second
)

// HysteresisStats is the shared mistake ledger. All counters are atomic so
// one instance can aggregate across every node of a cluster (each node's
// detector runs on its own event loop).
type HysteresisStats struct {
	// Crossings counts inner-detector threshold crossings observed.
	Crossings atomic.Uint64
	// Flaps counts crossings cancelled by traffic before confirmation —
	// mistakes the hysteresis layer absorbed.
	Flaps atomic.Uint64
	// Confirms counts crossings that survived the dwell and surfaced to
	// the protocol as suspicions.
	Confirms atomic.Uint64
	// ConfirmedRecoveries counts confirmed suspicions after which the
	// peer still proved alive — protocol-visible mistakes.
	ConfirmedRecoveries atomic.Uint64
	// Mistakes counts recovered crossings (= Flaps + ConfirmedRecoveries)
	// and MistakeNs sums their durations from crossing to recovery: the
	// raw material of the QoS mistake-duration metric.
	Mistakes  atomic.Uint64
	MistakeNs atomic.Int64
}

// MeanMistake returns the mean duration of recovered crossings, or 0 when
// none were observed.
func (s *HysteresisStats) MeanMistake() time.Duration {
	n := s.Mistakes.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(s.MistakeNs.Load() / int64(n))
}

// hystState is the wrapper's per-peer memory: the current crossing (if
// any) and the decayed flap score.
type hystState struct {
	crossed   bool
	confirmed bool
	crossedAt time.Time
	flap      float64   // decayed count of recovered crossings
	flapAt    time.Time // timestamp flap was last decayed to
}

// Hysteresis wraps any Detector with confirm-before-suspect dwell and a
// flap-aware penalty. Like every detector it is event-loop-owned and
// needs no locking (the shared Stats are atomic).
type Hysteresis struct {
	opts  HysteresisOptions
	inner Detector
	peers map[ids.ProcID]*hystState
}

// NewHysteresis wraps inner with the given hysteresis policy.
func NewHysteresis(inner Detector, opts HysteresisOptions) *Hysteresis {
	return &Hysteresis{
		opts:  opts,
		inner: inner,
		peers: make(map[ids.ProcID]*hystState),
	}
}

// NewHysteresisFactory returns a Factory producing independent Hysteresis
// wrappers over detectors built by inner. A Stats pointer in opts is
// shared across all of them.
func NewHysteresisFactory(inner Factory, opts HysteresisOptions) Factory {
	return func() Detector { return NewHysteresis(inner(), opts) }
}

// Observe implements Detector: traffic from q proves it alive, so an open
// crossing is a mistake — record it, bump the flap score, and forward.
func (h *Hysteresis) Observe(q ids.ProcID, at time.Time) {
	if st, ok := h.peers[q]; ok && st.crossed {
		h.recover(st, at)
	}
	h.inner.Observe(q, at)
}

// ObserveBeacon implements Detector; beacons prove liveness exactly like
// protocol traffic does.
func (h *Hysteresis) ObserveBeacon(q ids.ProcID, at time.Time) {
	if st, ok := h.peers[q]; ok && st.crossed {
		h.recover(st, at)
	}
	h.inner.ObserveBeacon(q, at)
}

// recover closes an open crossing because q produced traffic: the
// crossing was a mistake. Its duration feeds the mistake ledger and the
// peer's flap score grows, earning it more dwell next time.
func (h *Hysteresis) recover(st *hystState, at time.Time) {
	if s := h.opts.Stats; s != nil {
		if st.confirmed {
			s.ConfirmedRecoveries.Add(1)
		} else {
			s.Flaps.Add(1)
		}
		s.Mistakes.Add(1)
		if d := at.Sub(st.crossedAt); d > 0 {
			s.MistakeNs.Add(int64(d))
		}
	}
	h.decay(st, at)
	st.flap++
	st.crossed = false
	st.confirmed = false
}

// Suspicion implements Detector: the inner level is forwarded unchanged,
// so the Faulty trace event still records how confident the *detector*
// was when the policy layer let the suspicion through.
func (h *Hysteresis) Suspicion(q ids.ProcID, at time.Time) float64 {
	return h.inner.Suspicion(q, at)
}

// Suspect implements Detector: report true only once the inner detector
// has held the suspicion for the peer's effective dwell.
func (h *Hysteresis) Suspect(q ids.ProcID, at time.Time) bool {
	raw := h.inner.Suspect(q, at)
	st, ok := h.peers[q]
	if !ok {
		st = &hystState{}
		h.peers[q] = st
	}
	if !raw {
		// The inner detector cleared without traffic reaching us (e.g. a
		// refresh we did not mediate). No liveness was proven, so close
		// the crossing without charging a mistake.
		st.crossed = false
		st.confirmed = false
		return false
	}
	if !st.crossed {
		st.crossed = true
		st.confirmed = false
		st.crossedAt = at
		if s := h.opts.Stats; s != nil {
			s.Crossings.Add(1)
		}
	}
	// An inner crossing below the inner's own threshold (level < 1) can
	// only come from closed-stream evidence (Detector.Closed): the kernel,
	// not timing noise, said the peer's stream ended, so there is nothing
	// for a dwell to filter and the crossing is confirmed at once.
	if !st.confirmed && (at.Sub(st.crossedAt) >= h.dwell(st, at) || h.inner.Suspicion(q, at) < 1) {
		st.confirmed = true
		if s := h.opts.Stats; s != nil {
			s.Confirms.Add(1)
		}
	}
	return st.confirmed
}

// dwell computes q's effective dwell: the base dwell scaled up by the
// decayed flap score, capped by maxPenalty.
func (h *Hysteresis) dwell(st *hystState, at time.Time) time.Duration {
	if h.opts.FlapPenalty <= 0 || st.flap == 0 {
		return h.opts.Dwell
	}
	h.decay(st, at)
	pen := min(h.opts.FlapPenalty*st.flap, maxPenalty)
	return h.opts.Dwell + time.Duration(pen*float64(h.opts.Dwell))
}

// decay applies the exponential half-life to st.flap up to time at.
func (h *Hysteresis) decay(st *hystState, at time.Time) {
	if !st.flapAt.IsZero() && st.flap > 0 {
		if dt := at.Sub(st.flapAt); dt > 0 {
			st.flap *= math.Exp2(-float64(dt) / float64(penaltyHalfLife))
		}
	}
	st.flapAt = at
}

// Closed implements Detector: the inner detector weighs the evidence;
// Suspect then confirms the crossing it causes without a dwell.
func (h *Hysteresis) Closed(q ids.ProcID, at time.Time) { h.inner.Closed(q, at) }

// Rearm implements Detector: our OWN stall fabricated the silence, so the
// open crossing (if any) is evidence-free — drop it without charging the
// peer a mistake or a flap — and forward so the inner detector refreshes
// its clock without anchoring a sample.
func (h *Hysteresis) Rearm(q ids.ProcID, at time.Time) {
	if st, ok := h.peers[q]; ok {
		st.crossed = false
		st.confirmed = false
	}
	h.inner.Rearm(q, at)
}

// Retain implements Detector: prune the wrapper's own per-peer state and
// forward so the inner detector prunes too.
func (h *Hysteresis) Retain(members []ids.ProcID) {
	retainKeys(h.peers, members)
	h.inner.Retain(members)
}
