package fd

import (
	"math/rand"
	"testing"
	"time"

	"procgroup/internal/ids"
)

// stateCount reports how many peers a detector currently tracks,
// recursing through hysteresis wrappers so hidden inner maps are audited
// too.
func stateCount(t *testing.T, d Detector) int {
	t.Helper()
	switch v := d.(type) {
	case *Timeout:
		return len(v.lastSeen)
	case *Hysteresis:
		if inner := stateCount(t, v.inner); inner > len(v.peers) {
			return inner
		}
		return len(v.peers)
	default:
		t.Fatalf("stateCount: unhandled detector %T", d)
		return 0
	}
}

func TestRetainPrunesAllDetectorStateUnderChurn(t *testing.T) {
	// Property: across repeated exclude/readmit cycles with fresh
	// incarnations — the live runtime's churn shape, where every rebirth
	// is a brand-new ProcID — Retain keeps every detector's per-peer
	// state bounded by the member count. A leak here is unbounded memory
	// on any long-lived group with churn.
	detectors := map[string]func() Detector{
		"timeout": func() Detector { return NewTimeout(20 * time.Millisecond) },
		"hysteresis-over-timeout": func() Detector {
			return NewHysteresis(NewTimeout(20*time.Millisecond), HysteresisOptions{
				Dwell: 5 * time.Millisecond, FlapPenalty: 1,
			})
		},
	}

	for name, mk := range detectors {
		t.Run(name, func(t *testing.T) {
			d := mk()
			rng := rand.New(rand.NewSource(7))
			const sites = 8
			inc := make([]uint32, sites)
			members := make([]ids.ProcID, sites)
			for i := range members {
				members[i] = ids.ProcID{Site: "p" + string(rune('a'+i))}
			}

			now := t0
			for cycle := 0; cycle < 200; cycle++ {
				// Drive traffic and suspicion checks on current members,
				// including silences long enough to open crossings.
				for step := 0; step < 12; step++ {
					now = now.Add(time.Duration(1+rng.Intn(30)) * time.Millisecond)
					q := members[rng.Intn(sites)]
					switch rng.Intn(3) {
					case 0:
						d.ObserveBeacon(q, now)
					case 1:
						d.Observe(q, now)
					default:
						d.Suspect(q, now)
					}
				}
				// Exclude a random member and readmit a fresh incarnation
				// of the same site — the detector must forget the old one.
				i := rng.Intn(sites)
				inc[i]++
				members[i] = ids.ProcID{Site: members[i].Site, Incarnation: inc[i]}
				d.Retain(members)

				if got := stateCount(t, d); got > sites {
					t.Fatalf("cycle %d: tracking %d peers for a %d-member view — stale incarnations leaked",
						cycle, got, sites)
				}
			}
		})
	}
}
