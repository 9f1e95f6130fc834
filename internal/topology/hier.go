package topology

import (
	"procgroup/internal/ids"
)

// DefaultHierClusterSize is the cluster size a zero-valued Hier uses.
const DefaultHierClusterSize = 8

// Hier is two-level hierarchical monitoring, the cluster/leader shape
// Dobre et al. argue for at scale: the view's seniority order is cut into
// contiguous clusters of C members, each cluster runs ring-k monitoring
// internally, and the clusters' leaders (each cluster's most senior
// member) run a second ring-k among themselves — the inter-cluster
// monitor links that carry failure evidence between clusters. Total
// monitoring degree stays O(k) per member (leaders pay 2k), so beacon
// traffic is O(n·k) like RingK, but the monitoring graph's diameter drops
// from n/k hops to ~C/k + L/k (L = number of clusters): suspicion
// digests cross the group in far fewer hops at n in the hundreds.
//
// Like RingK, the layout is a pure function of the membership list,
// recomputed on every view installation, so churn immediately re-clusters
// the group: an excluded leader's cluster gets its next member promoted,
// and members shift between clusters as seniors leave. The graph stays
// strongly connected (intra-cluster rings pass through every member,
// leaders link every cluster), so the digests' hop-by-hop flood reaches
// every operational member, and every member has at least one
// monitor whenever the group has two members — F1's eventual-suspicion
// contract keeps its coverage.
//
// With one cluster (len(view) ≤ C) Hier degenerates to RingK{K} exactly;
// with K ≥ cluster size − 1 each cluster is internally full-mesh.
type Hier struct {
	// C is the cluster size (DefaultHierClusterSize when ≤ 0). Clusters
	// are contiguous runs of the seniority order; the last cluster may be
	// smaller.
	C int
	// K is the ring successor count used both inside clusters and on the
	// leader ring (DefaultRingK when ≤ 0).
	K int
}

func (h Hier) c() int {
	if h.C <= 0 {
		return DefaultHierClusterSize
	}
	return h.C
}

func (h Hier) k() int {
	if h.K <= 0 {
		return DefaultRingK
	}
	return h.K
}

// Monitors implements Topology: self's k successors within its cluster,
// plus — when self leads its cluster — the k successor leaders on the
// leader ring.
func (h Hier) Monitors(view []ids.ProcID, self ids.ProcID) []ids.ProcID {
	return h.links(view, self, +1)
}

// MonitoredBy implements Inverter: self's k predecessors within its
// cluster, plus — when self leads its cluster — the k predecessor
// leaders on the leader ring.
func (h Hier) MonitoredBy(view []ids.ProcID, self ids.ProcID) []ids.ProcID {
	return h.links(view, self, -1)
}

// links walks the intra-cluster ring and (for leaders) the leader ring in
// the given direction, deduplicating the two walks — with few, small
// clusters the same member can be both a cluster-mate and a leader peer.
func (h Hier) links(view []ids.ProcID, self ids.ProcID, dir int) []ids.ProcID {
	i := indexOf(view, self)
	if i < 0 {
		return nil
	}
	c := h.c()
	if len(view) <= c {
		// One cluster: the hierarchy is exactly ring-k.
		return RingK{K: h.K}.ring(view, self, dir)
	}
	cluster := view[(i/c)*c : min(((i/c)+1)*c, len(view))]
	out := subring(cluster, self, dir, h.k())
	if i%c == 0 {
		// Leaders additionally ride the leader ring. Leader count is
		// ⌈n/C⌉ ≥ 2 here, so the walk always yields peers.
		leaders := make([]ids.ProcID, 0, (len(view)+c-1)/c)
		for j := 0; j < len(view); j += c {
			leaders = append(leaders, view[j])
		}
		for _, p := range subring(leaders, self, dir, h.k()) {
			if !contains(out, p) {
				out = append(out, p)
			}
		}
	}
	return out
}

// subring walks k steps around one contiguous slice of the view in the
// given direction from self, degenerating to the slice's full mesh when
// k covers it — the same shape as RingK.ring over a sub-list.
func subring(sub []ids.ProcID, self ids.ProcID, dir, k int) []ids.ProcID {
	i := indexOf(sub, self)
	if i < 0 || len(sub) <= 1 {
		return nil
	}
	n := len(sub)
	if k >= n-1 {
		return others(sub, self)
	}
	out := make([]ids.ProcID, 0, k)
	for j := 1; j <= k; j++ {
		out = append(out, sub[((i+dir*j)%n+n)%n])
	}
	return out
}
