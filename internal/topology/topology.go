package topology

import (
	"procgroup/internal/ids"
)

// Topology decides who monitors whom. The paper's F1 (§2.2) only requires
// that a genuinely faulty process is *eventually* suspected by *some*
// operational member — it never requires all-to-all observation — so the
// monitoring relation is a free design axis, independent of membership.
// A Topology pins that axis down: given a view's membership, it names the
// members each process watches (runs failure-detection state for). The
// inverse relation — who watches me — is who I must beacon to; see
// BeaconTargets.
//
// Implementations must be pure functions of their arguments: the live
// runtime calls Monitors concurrently from every node's event loop, on
// every view installation (so churn immediately re-closes a partial
// topology). Stateless struct values satisfy this trivially.
type Topology interface {
	// Monitors returns the members self must monitor, given the view's
	// membership in seniority order (most senior first — the order
	// member.View.Members returns). The result excludes self, preserves
	// the view's relative order where meaningful, and is nil when self
	// is not in view or has nothing to watch.
	Monitors(view []ids.ProcID, self ids.ProcID) []ids.ProcID
}

// Inverter is an optional Topology extension: a direct implementation of
// the inverse relation ("who monitors self"), used by BeaconTargets as a
// fast path. Implementations must agree with the generic inverse of
// Monitors — TestBeaconTargetsMatchesGenericInverse pins this.
type Inverter interface {
	// MonitoredBy returns the members that monitor self in view — the
	// set self must beacon to.
	MonitoredBy(view []ids.ProcID, self ids.ProcID) []ids.ProcID
}

// BeaconTargets returns the members that monitor self under t — the
// processes self must send liveness beacons to. It uses t's Inverter fast
// path when available and otherwise derives the inverse from Monitors.
func BeaconTargets(t Topology, view []ids.ProcID, self ids.ProcID) []ids.ProcID {
	if inv, ok := t.(Inverter); ok {
		return inv.MonitoredBy(view, self)
	}
	var out []ids.ProcID
	for _, q := range view {
		if q == self {
			continue
		}
		for _, w := range t.Monitors(view, q) {
			if w == self {
				out = append(out, q)
				break
			}
		}
	}
	return out
}

// Full is the all-to-all topology: every member monitors every other —
// the behavior the live runtime had before the topology was made
// pluggable, and the default when GroupOptions.Topology is nil. Beacon
// traffic and (on socket transports) connection count grow quadratically
// with the group, which is what RingK exists to break.
type Full struct{}

// Monitors implements Topology: every other view member, in view order.
func (Full) Monitors(view []ids.ProcID, self ids.ProcID) []ids.ProcID {
	if !contains(view, self) {
		return nil
	}
	return others(view, self)
}

// MonitoredBy implements Inverter: the relation is symmetric.
func (Full) MonitoredBy(view []ids.ProcID, self ids.ProcID) []ids.ProcID {
	if !contains(view, self) {
		return nil
	}
	return others(view, self)
}

// DefaultRingK is the successor count a zero-valued RingK uses.
const DefaultRingK = 3

// RingK is ring-k monitoring: the view's seniority order is closed into a
// ring, and each process monitors its K rank-successors (and is therefore
// monitored by its K rank-predecessors, the set it beacons to). Beacon
// traffic is O(n·k) instead of O(n²) and a socket transport's lazy dialing
// opens ~n·k connections instead of n(n−1)/2.
//
// The ring is recomputed from the membership list on every call, so each
// view installation re-closes it around excluded members — k consecutive
// failures between two installations are the window's tolerance. A
// monitor reports faulty_p(q) to the coordinator directly (or, when the
// coordinator is the suspect, to the member next in rank), and the live
// runtime's suspicion digests (see internal/core's SuspicionGossiper)
// carry it around the ring to everyone else, none of whom monitor q.
//
// When K ≥ len(view)−1 every successor set is the whole group and RingK
// degenerates to Full exactly.
type RingK struct {
	// K is the number of rank-successors each process monitors
	// (DefaultRingK when ≤ 0).
	K int
}

func (r RingK) k() int {
	if r.K <= 0 {
		return DefaultRingK
	}
	return r.K
}

// Monitors implements Topology: the k members following self in the
// cyclic seniority order.
func (r RingK) Monitors(view []ids.ProcID, self ids.ProcID) []ids.ProcID {
	return r.ring(view, self, +1)
}

// MonitoredBy implements Inverter: the k members preceding self in the
// cyclic seniority order, nearest first.
func (r RingK) MonitoredBy(view []ids.ProcID, self ids.ProcID) []ids.ProcID {
	return r.ring(view, self, -1)
}

// ring walks k steps around the view in the given direction from self.
func (r RingK) ring(view []ids.ProcID, self ids.ProcID, dir int) []ids.ProcID {
	i := indexOf(view, self)
	if i < 0 {
		return nil
	}
	n := len(view)
	k := r.k()
	if k >= n-1 {
		return others(view, self) // degenerate: the ring is the full mesh
	}
	out := make([]ids.ProcID, 0, k)
	for j := 1; j <= k; j++ {
		out = append(out, view[((i+dir*j)%n+n)%n])
	}
	return out
}

// indexOf returns self's position in view, or -1.
func indexOf(view []ids.ProcID, self ids.ProcID) int {
	for i, m := range view {
		if m == self {
			return i
		}
	}
	return -1
}

func contains(view []ids.ProcID, self ids.ProcID) bool {
	return indexOf(view, self) >= 0
}

// others returns view minus self, preserving order.
func others(view []ids.ProcID, self ids.ProcID) []ids.ProcID {
	if len(view) <= 1 {
		return nil
	}
	out := make([]ids.ProcID, 0, len(view)-1)
	for _, m := range view {
		if m != self {
			out = append(out, m)
		}
	}
	return out
}
