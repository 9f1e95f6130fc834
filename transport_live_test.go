package procgroup_test

// End-to-end tests of the live group over the network wire: the paper's
// deployment target (§2.1's asynchronous network of reliable FIFO
// channels) realized with real TCP sockets on loopback, heartbeats on UDP
// beside them, with the agreed view sequence verified by ViewWatcher.

import (
	"testing"
	"time"

	"procgroup"
)

// tcpGroup boots n live nodes over the loopback network wire: protocol
// traffic on TCP sockets, beacons on UDP.
func tcpGroup(n int) *procgroup.Group {
	return procgroup.StartGroup(procgroup.GroupOptions{
		N:              n,
		HeartbeatEvery: 15 * time.Millisecond,
		SuspectAfter:   150 * time.Millisecond,
		Transport:      procgroup.NewUDPBeaconTransport(),
	})
}

// TestTCPGroupChurnInstallsAgreedViewSequence is the transport tentpole's
// acceptance scenario: a 5-node group over the TCP+UDP wire survives a join followed by
// two crashes (one of them the coordinator) and installs one agreed,
// gap-free view sequence, observed through ViewWatcher.
func TestTCPGroupChurnInstallsAgreedViewSequence(t *testing.T) {
	g := tcpGroup(5)
	defer g.Stop()
	w := procgroup.Watch(g)
	defer w.Close()

	if _, err := g.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	g.Join(procgroup.Named("q1"), procgroup.Named("p2"))
	if _, err := g.WaitConverged(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	g.Kill(procgroup.Named("p5"))
	if _, err := g.WaitConverged(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	g.Kill(procgroup.Named("p1")) // coordinator crash: three-phase reconfiguration
	if _, err := g.WaitConverged(20 * time.Second); err != nil {
		t.Fatal(err)
	}

	// The agreed sequence must arrive gap-free and in order: v0 (5
	// members), v1 (join: 6), v2 (exclusion: 5), v3 (coordinator
	// exclusion: 4).
	wantSizes := []int{5, 6, 5, 4}
	deadline := time.After(10 * time.Second)
	for want := procgroup.Version(0); want <= 3; want++ {
		select {
		case av, ok := <-w.Views():
			if !ok {
				t.Fatal("agreed view stream closed early")
			}
			if av.Ver != want {
				t.Fatalf("agreed sequence has a gap: got v%d, want v%d", av.Ver, want)
			}
			if len(av.Members) != wantSizes[want] {
				t.Errorf("v%d has %d members, want %d (%v)", av.Ver, len(av.Members), wantSizes[want], av.Members)
			}
		case <-deadline:
			t.Fatalf("timed out waiting for agreed view v%d", want)
		}
	}
	cur, ok := w.Current()
	if !ok || cur.Ver != 3 {
		t.Fatalf("Current = %+v, want v3", cur)
	}
	for _, m := range cur.Members {
		if m == procgroup.Named("p1") || m == procgroup.Named("p5") {
			t.Errorf("excluded %v still in final view %v", m, cur.Members)
		}
	}
	if g.Dropped() != 0 {
		t.Errorf("updates stream dropped %d installs with an attached watcher", g.Dropped())
	}
}

// TestGroupOptionsTransportDefaultsToInmem: a nil Transport behaves
// exactly as the seed did — the existing live tests all run through this
// path, so here we only pin that the default converges.
func TestGroupOptionsTransportDefaultsToInmem(t *testing.T) {
	g := procgroup.StartGroup(procgroup.GroupOptions{
		N:              3,
		HeartbeatEvery: 5 * time.Millisecond,
		SuspectAfter:   30 * time.Millisecond,
	})
	defer g.Stop()
	if _, err := g.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
}
