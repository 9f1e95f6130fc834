package live

import (
	"fmt"
	"testing"
	"time"

	"procgroup/internal/check"
	"procgroup/internal/core"
	"procgroup/internal/fd"
	"procgroup/internal/ids"
	"procgroup/internal/topology"
	"procgroup/internal/trace"
	"procgroup/internal/transport"
)

// --- The liveness wheel is cadence-pure on every transport -----------------

// sendLog is a plane-less Transport that records every send and delivers
// nothing: the wheel under test talks to no one. Single-goroutine use.
type sendLog struct{ sent []loggedSend }

type loggedSend struct {
	to ids.ProcID
	m  transport.Message
}

func (l *sendLog) Register(ids.ProcID, transport.Handler) error { return nil }
func (l *sendLog) Unregister(ids.ProcID)                        {}
func (l *sendLog) Stats() transport.Stats                       { return transport.Stats{} }
func (l *sendLog) Close() error                                 { return nil }
func (l *sendLog) Send(_, to ids.ProcID, m transport.Message) {
	l.sent = append(l.sent, loggedSend{to: to, m: m})
}

// beacons returns the recipients of the logged beacon-class frames
// (unrecorded Heartbeats and digests), in send order, and clears the log.
func (l *sendLog) beacons() []ids.ProcID {
	var to []ids.ProcID
	for _, s := range l.sent {
		switch s.m.Payload.(type) {
		case Heartbeat, SuspicionDigest:
			if s.m.MsgID == 0 {
				to = append(to, s.to)
			}
		}
	}
	l.sent = nil
	return to
}

// TestWheelBeaconsEveryPassOnAnyTransport drives one node's wheel by hand
// over a transport with no beacon plane: two back-to-back passes with a
// protocol send to a monitor between them must each emit exactly one
// beacon-class frame per member that monitors this node, in view order,
// and none to the members it only watches. A protocol frame is no
// inter-arrival sample for the peer's detector, so it replaces no beacon.
func TestWheelBeaconsEveryPassOnAnyTransport(t *testing.T) {
	// Ring-2 over p1..p6: p1 watches p2, p3 and is watched by p5, p6.
	wire := &sendLog{}
	opts := ringOpts(6, 2)
	opts.Transport = wire
	c := &Cluster{opts: opts, tr: wire, rec: trace.NewRecorder(func() int64 { return 0 })}
	self := ids.Named("p1")
	ln := &liveNode{
		c:          c,
		id:         self,
		det:        fd.NewTimeoutFactory(time.Hour)(),
		digestOut:  make(map[ids.ProcID]*digestPending),
		digestSeen: ids.NewSet(),
	}
	ln.node = core.New(self, (*liveEnv)(ln), nodeConfig(opts))
	ln.node.Bootstrap(ids.Gen(6))

	want := fmt.Sprint([]ids.ProcID{ids.Named("p5"), ids.Named("p6")})
	ln.beat()
	if got := fmt.Sprint(wire.beacons()); got != want {
		t.Fatalf("first pass beaconed %s, want %s", got, want)
	}
	(*liveEnv)(ln).Send(ids.Named("p5"), core.OK{})
	ln.beat()
	if got := fmt.Sprint(wire.beacons()); got != want {
		t.Fatalf("pass after a protocol send beaconed %s, want %s", got, want)
	}
}

// --- RingK end to end ---------------------------------------------------------

func ringOpts(n, k int) Options {
	opts := fast(n)
	opts.Topology = topology.RingK{K: k}
	return opts
}

func checkGMP(t *testing.T, c *Cluster, n int) {
	t.Helper()
	running := ids.NewSet(c.Running()...)
	rep := check.Run(check.Input{
		Recorder: c.Recorder(),
		Initial:  ids.Gen(n),
		Alive:    running.Has,
	})
	if !rep.OK() {
		t.Errorf("ring trace violates GMP:\n%v", rep)
	}
}

func TestRingExcludesKilledMember(t *testing.T) {
	// Under ring-1 only one process monitors the victim; its report to
	// the (live) coordinator must still drive the exclusion.
	c := Start(ringOpts(5, 1))
	defer c.Stop()
	if _, err := c.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	victim := ids.Named("p4") // not the coordinator, not its monitor
	c.Kill(victim)
	v, err := c.WaitConverged(15 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if v.Has(victim) {
		t.Fatalf("victim still in %v", v)
	}
	checkGMP(t, c, 5)
}

func TestRingCoordinatorDeathReconfiguresViaHeirReport(t *testing.T) {
	// Ring-1, kill the coordinator: only its single rank-predecessor
	// observes the death, and the next-in-rank (who must initiate
	// reconfiguration) does not monitor the coordinator at all. The
	// observer's point-to-point FaultyReport to that heir is the only way
	// faulty(Mgr) can reach it before the Table 1 timeout; with it,
	// reconfiguration completes at detection speed.
	c := Start(ringOpts(6, 1))
	defer c.Stop()
	if _, err := c.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	c.Kill(ids.Named("p1"))
	v, err := c.WaitConverged(15 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if v.Has(ids.Named("p1")) {
		t.Fatalf("dead coordinator still in %v", v)
	}
	if v.Mgr() != ids.Named("p2") {
		t.Errorf("Mgr = %v, want p2", v.Mgr())
	}
	checkGMP(t, c, 6)
}

func TestRingDegenerateKCollapsesToFull(t *testing.T) {
	// k ≥ n−1: every node watches everyone, nothing is gossiped, and the
	// cluster behaves exactly like Full — including excluding a killed
	// coordinator.
	c := Start(ringOpts(4, 9))
	defer c.Stop()
	if _, err := c.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	c.Kill(ids.Named("p1"))
	v, err := c.WaitConverged(15 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if v.Has(ids.Named("p1")) {
		t.Fatalf("dead coordinator still in %v", v)
	}
	checkGMP(t, c, 4)
}

func TestRingPartitionedMonitorAwaitStillExcludes(t *testing.T) {
	// The Chaos × RingK interplay: ring-1 over p1..p5, so p2 is the ONLY
	// monitor of p3. Kill p3 and simultaneously block everything p2
	// sends to the coordinator p1 — p2's GMP-5 report can never arrive,
	// and p2's digests travel only along its one beacon edge, which is
	// that same blocked link to its monitor p1. p3's exclusion must still
	// happen: p2 falls silent toward p1 and is suspected, and the
	// coordinator's round to exclude it stalls on p3, which nobody alive
	// monitors; the await fallback (Config.AwaitWait) then surmises
	// faulty of the unaccounted p3 rather than wedging the round. (An
	// asymmetric partition is indistinguishable from a crash, which the
	// paper permits; with p3 and p2 gone the {p1, p4, p5} majority keeps
	// the group live.)
	opts := ringOpts(5, 1)
	ch := transport.NewChaos(transport.NewInmem(), transport.ChaosOptions{})
	opts.Transport = ch
	c := Start(opts)
	defer c.Stop()
	if _, err := c.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	ch.SetLink(ids.Named("p2"), ids.Named("p1"), transport.ChaosLink{Blocked: true})
	c.Kill(ids.Named("p3"))
	deadline := time.Now().Add(20 * time.Second)
	for {
		v := c.ViewOf(ids.Named("p1"))
		if v != nil && !v.Has(ids.Named("p3")) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the partitioned monitor's suspect was never excluded: p3 still in the coordinator's view")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRingChurnKeepsCoverageAndGMP is the churn property test: across
// kill/join cycles under ring-k, every install must re-close the ring so
// that each live member is monitored by ≥1 live member, and the full
// accumulated trace must still certify GMP. Coverage is asserted on every
// converged view, including the k ≥ live-peer-count degenerate boundary
// the shrinking group crosses.
func TestRingChurnKeepsCoverageAndGMP(t *testing.T) {
	const n, k = 5, 2
	c := Start(ringOpts(n, k))
	defer c.Stop()
	if _, err := c.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	assertCoverage := func(members []ids.ProcID) {
		t.Helper()
		topo := topology.RingK{K: k}
		monitored := ids.NewSet()
		for _, p := range members {
			for _, q := range topo.Monitors(members, p) {
				monitored.Add(q)
			}
		}
		for _, q := range members {
			if len(members) > 1 && !monitored.Has(q) {
				t.Fatalf("coverage broken: %v monitored by nobody in %v", q, members)
			}
		}
	}
	inc := uint32(0)
	for cycle := 0; cycle < 3; cycle++ {
		running := c.Running()
		victim := running[len(running)-1]
		if victim == ids.Named("p1") && len(running) > 1 {
			victim = running[len(running)-2]
		}
		c.Kill(victim)
		v, err := c.WaitConverged(15 * time.Second)
		if err != nil {
			t.Fatalf("cycle %d after kill: %v", cycle, err)
		}
		assertCoverage(v.Members())
		inc++
		reborn := ids.ProcID{Site: victim.Site, Incarnation: victim.Incarnation + inc}
		c.Join(reborn, c.Running()[0])
		v, err = c.WaitConverged(15 * time.Second)
		if err != nil {
			t.Fatalf("cycle %d after join: %v", cycle, err)
		}
		assertCoverage(v.Members())
	}
	checkGMP(t, c, n)
}

// TestRingShrinksDetectorStateToK pins the O(n)→O(k) claim operationally:
// after install, a ring node's wheel only covers its 2k neighbors, not
// the whole view.
func TestRingShrinksDetectorStateToK(t *testing.T) {
	const n, k = 9, 2
	c := Start(ringOpts(n, k))
	defer c.Stop()
	if _, err := c.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	ln := c.nodes[ids.Named("p5")]
	c.mu.Unlock()
	if ln == nil {
		t.Fatal("p5 missing")
	}
	done := make(chan struct{})
	var watch, beaconTo, wheel int
	ln.box.put(envelope{fn: func() {
		watch, beaconTo, wheel = len(ln.watch), len(ln.beaconTo), len(ln.wheel)
		close(done)
	}})
	<-done
	if watch != k || beaconTo != k || wheel != 2*k {
		t.Errorf("ring node tracks watch=%d beaconTo=%d wheel=%d, want %d/%d/%d (O(k), not O(n))",
			watch, beaconTo, wheel, k, k, 2*k)
	}
}

func TestFullTopologyExplicitMatchesDefault(t *testing.T) {
	// GroupOptions.Topology = Full must behave exactly like the nil
	// default (it IS the default): boot, kill, exclude, GMP.
	opts := fast(5)
	opts.Topology = topology.Full{}
	c := Start(opts)
	defer c.Stop()
	if _, err := c.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	c.Kill(ids.Named("p5"))
	v, err := c.WaitConverged(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if v.Has(ids.Named("p5")) {
		t.Fatalf("victim still in %v", v)
	}
	checkGMP(t, c, 5)
}

func TestRingOverTCPExcludesKilledMember(t *testing.T) {
	// The whole stack at once: ring-2 monitoring over real sockets. The
	// lazily-dialed connection count must stay at the ring's footprint
	// (≤ n·k channels, well under the full mesh's n(n−1)) while exclusion
	// still works — with the suspicion spread by digests, which ride the
	// stream here as ordinary sequenced frames, like the heartbeats,
	// because plain TCP has no beacon plane.
	const n, k = 6, 2
	opts := ringOpts(n, k)
	opts.Transport = transport.NewTCP()
	c := Start(opts)
	defer c.Stop()
	if _, err := c.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Let the beacon pattern settle, then check the gauge.
	time.Sleep(10 * opts.HeartbeatEvery)
	if conns, max := c.TransportStats().ConnsOpen, int64(n*k); conns == 0 || conns > max {
		t.Errorf("ring ConnsOpen = %d, want 1..%d (full mesh would be %d)", conns, max, n*(n-1))
	}
	victim := ids.Named("p4")
	c.Kill(victim)
	v, err := c.WaitConverged(20 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if v.Has(victim) {
		t.Fatalf("victim still in %v", v)
	}
	if st := c.TransportStats(); st.SuspicionFrames == 0 {
		t.Errorf("exclusion spread without any counted suspicion frames: %+v", st)
	}
	checkGMP(t, c, n)
}

// --- Hier end to end ----------------------------------------------------------

func hierOpts(n, clusterSize, k int) Options {
	opts := fast(n)
	opts.Topology = topology.Hier{C: clusterSize, K: k}
	return opts
}

func TestHierExcludesKilledMember(t *testing.T) {
	// n=9, C=3, K=1: the victim p6 is watched only by its intra-cluster
	// predecessor p5; the report must cross the hierarchy to the
	// coordinator p1 and drive the exclusion.
	c := Start(hierOpts(9, 3, 1))
	defer c.Stop()
	if _, err := c.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	victim := ids.Named("p6")
	c.Kill(victim)
	v, err := c.WaitConverged(20 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if v.Has(victim) {
		t.Fatalf("victim still in %v", v)
	}
	checkGMP(t, c, 9)
}

func TestHierCoordinatorDeathReconfigures(t *testing.T) {
	// The coordinator is also its cluster's leader: killing it must let
	// its monitors (intra predecessor + previous leader) report faulty(p1)
	// to the heir p2, which initiates reconfiguration.
	c := Start(hierOpts(9, 3, 1))
	defer c.Stop()
	if _, err := c.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	c.Kill(ids.Named("p1"))
	v, err := c.WaitConverged(25 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if v.Has(ids.Named("p1")) {
		t.Fatalf("dead coordinator still in %v", v)
	}
	if v.Mgr() != ids.Named("p2") {
		t.Errorf("Mgr = %v, want p2", v.Mgr())
	}
	checkGMP(t, c, 9)
}

func TestHierPartitionedMonitorDigestStillExcludes(t *testing.T) {
	// The Chaos × Hier interplay, mirroring the ring-1 partition test:
	// under Hier{C:3, K:1} over p1..p9, p5 is the ONLY monitor of p6.
	// Kill p6 and block everything p5 sends to the coordinator p1 — p5's
	// GMP-5 report can never arrive directly. The exclusion must still
	// happen through the hierarchy's dissemination: p5's digests reach
	// its own monitor p4, and from there the strongly-connected monitor
	// graph carries faulty(p6) — leader ring included — to p1; the
	// coordinator's await fallback (Config.AwaitWait) backstops the race
	// with p5's own exclusion.
	opts := hierOpts(9, 3, 1)
	ch := transport.NewChaos(transport.NewInmem(), transport.ChaosOptions{})
	opts.Transport = ch
	c := Start(opts)
	defer c.Stop()
	if _, err := c.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	ch.SetLink(ids.Named("p5"), ids.Named("p1"), transport.ChaosLink{Blocked: true})
	c.Kill(ids.Named("p6"))
	deadline := time.Now().Add(25 * time.Second)
	for {
		v := c.ViewOf(ids.Named("p1"))
		if v != nil && !v.Has(ids.Named("p6")) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the hierarchy never carried the monitor's suspicion around the partition: p6 still in the coordinator's view")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestHierChurnKeepsCoverageAndGMP(t *testing.T) {
	// Kill/join cycles under the hierarchy: every install recomputes the
	// clusters over the surviving members, and coverage (every member
	// watched by ≥1 other) must hold on every converged view.
	const n = 9
	c := Start(hierOpts(n, 3, 1))
	defer c.Stop()
	if _, err := c.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	assertCoverage := func(members []ids.ProcID) {
		t.Helper()
		topo := topology.Hier{C: 3, K: 1}
		monitored := ids.NewSet()
		for _, p := range members {
			for _, q := range topo.Monitors(members, p) {
				monitored.Add(q)
			}
		}
		for _, q := range members {
			if len(members) > 1 && !monitored.Has(q) {
				t.Fatalf("coverage broken: %v monitored by nobody in %v", q, members)
			}
		}
	}
	inc := uint32(0)
	for cycle := 0; cycle < 2; cycle++ {
		running := c.Running()
		victim := running[len(running)-1]
		if victim == ids.Named("p1") && len(running) > 1 {
			victim = running[len(running)-2]
		}
		c.Kill(victim)
		v, err := c.WaitConverged(20 * time.Second)
		if err != nil {
			t.Fatalf("cycle %d after kill: %v", cycle, err)
		}
		assertCoverage(v.Members())
		inc++
		reborn := ids.ProcID{Site: victim.Site, Incarnation: victim.Incarnation + inc}
		c.Join(reborn, c.Running()[0])
		v, err = c.WaitConverged(20 * time.Second)
		if err != nil {
			t.Fatalf("cycle %d after join: %v", cycle, err)
		}
		assertCoverage(v.Members())
	}
	checkGMP(t, c, n)
}
