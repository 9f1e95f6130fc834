package live

import (
	"testing"
	"time"

	"procgroup/internal/check"
	"procgroup/internal/ids"
	"procgroup/internal/transport"
)

// tcpFast returns options running the cluster over real TCP loopback
// sockets. The suspicion margin is wider than inmem's: socket delivery
// adds codec and syscall latency, and the race detector inflates both.
func tcpFast(n int) Options {
	return Options{
		N:              n,
		HeartbeatEvery: 15 * time.Millisecond,
		SuspectAfter:   150 * time.Millisecond,
		Transport:      transport.NewTCP(),
	}
}

// TestTCPBootstrapConverges: the initial view forms over real sockets.
func TestTCPBootstrapConverges(t *testing.T) {
	c := Start(tcpFast(5))
	defer c.Stop()
	v, err := c.WaitConverged(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if v.Size() != 5 || v.Version() != 0 {
		t.Errorf("initial view %v", v)
	}
}

// TestTCPChurnSatisfiesGMP runs a join + crash churn over TCP loopback and
// checks the accumulated trace against the GMP properties.
func TestTCPChurnSatisfiesGMP(t *testing.T) {
	c := Start(tcpFast(5))
	defer c.Stop()
	if _, err := c.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	c.Join(ids.Named("q1"), ids.Named("p2"))
	if _, err := c.WaitConverged(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	c.Kill(ids.Named("p5"))
	if _, err := c.WaitConverged(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	c.Kill(ids.Named("p1")) // the coordinator: forces a reconfiguration
	v, err := c.WaitConverged(20 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if v.Has(ids.Named("p1")) || v.Has(ids.Named("p5")) || !v.Has(ids.Named("q1")) {
		t.Errorf("final view %v", v)
	}
	running := ids.NewSet(c.Running()...)
	rep := check.Run(check.Input{
		Recorder: c.Recorder(),
		Initial:  ids.Gen(5),
		Alive:    running.Has,
	})
	if !rep.OK() {
		t.Errorf("TCP churn violates GMP:\n%v", rep)
	}
}

// TestDroppedCountsOverflow overflows a 1-slot updates stream with nobody
// draining it: the cluster must keep converging and account for every
// install it could not publish.
func TestDroppedCountsOverflow(t *testing.T) {
	c := Start(Options{
		N:              3,
		HeartbeatEvery: 5 * time.Millisecond,
		SuspectAfter:   30 * time.Millisecond,
		UpdateBuffer:   1,
	})
	defer c.Stop()
	if _, err := c.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	c.Kill(ids.Named("p3"))
	if _, err := c.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Bootstrap installs v0 at 3 nodes and the exclusion installs v1 at
	// 2 survivors: 5 installs into a 1-slot buffer nobody drains.
	if got := c.Dropped(); got != 4 {
		t.Errorf("Dropped() = %d, want 4 (5 installs, 1 buffered)", got)
	}
	if len(c.Updates()) != 1 {
		t.Errorf("updates buffer holds %d, want 1", len(c.Updates()))
	}
}

// TestDroppedZeroWhenDrained: a drained stream loses nothing.
func TestDroppedZeroWhenDrained(t *testing.T) {
	c := Start(Options{
		N:              3,
		HeartbeatEvery: 5 * time.Millisecond,
		SuspectAfter:   30 * time.Millisecond,
	})
	defer c.Stop()
	if _, err := c.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := c.Dropped(); got != 0 {
		t.Errorf("Dropped() = %d, want 0", got)
	}
}

// TestTransportStatsSurfaceDrops: killing a member makes the survivors'
// beacons to it fail at the wire, and the cluster surfaces those drops
// with their reason through TransportStats — distinguishable from
// congestion, which Dropped()'s update-stream counter never was.
func TestTransportStatsSurfaceDrops(t *testing.T) {
	c := Start(tcpFast(3))
	defer c.Stop()
	if _, err := c.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := c.TransportStats().Dropped(); got != 0 {
		t.Errorf("healthy cluster dropped %d frames (%+v)", got, c.TransportStats())
	}
	c.Kill(ids.Named("p3"))
	if _, err := c.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Between the kill and the exclusion, survivors kept beaconing the
	// dead endpoint; those frames must land in a dead-host bucket, not
	// vanish uncounted or masquerade as saturation. The accounting is
	// eventual: the stream plane retries transient failures with backoff
	// (reliable-FIFO contract) before it gives a frame up for dead.
	deadline := time.Now().Add(10 * time.Second)
	st := c.TransportStats()
	for st.DialFailed+st.UnknownPeer+st.WriteFailed+st.Closed == 0 && time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
		st = c.TransportStats()
	}
	if st.DialFailed+st.UnknownPeer+st.WriteFailed+st.Closed == 0 {
		t.Errorf("no dead-host drops recorded after a kill: %+v", st)
	}
	if st.QueueSaturated != 0 {
		t.Errorf("dead-host drops misfiled as saturation: %+v", st)
	}
}

// twoPlaneFast returns options running the cluster over the two-plane
// substrate: protocol traffic on TCP loopback, beacons on UDP loopback.
func twoPlaneFast(n int) Options {
	return Options{
		N:              n,
		HeartbeatEvery: 15 * time.Millisecond,
		SuspectAfter:   150 * time.Millisecond,
		Transport:      transport.NewTwoPlane(transport.NewTCP(), transport.NewUDP()),
	}
}

// TestTwoPlaneChurnSatisfiesGMP runs the TCP churn scenario over the
// two-plane wire: beacons on UDP, protocol traffic on TCP, and the same
// GMP properties must hold across a join, two crashes, and the forced
// reconfiguration.
func TestTwoPlaneChurnSatisfiesGMP(t *testing.T) {
	c := Start(twoPlaneFast(5))
	defer c.Stop()
	if _, err := c.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	c.Join(ids.Named("q1"), ids.Named("p2"))
	if _, err := c.WaitConverged(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	c.Kill(ids.Named("p5"))
	if _, err := c.WaitConverged(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	c.Kill(ids.Named("p1")) // the coordinator: forces a reconfiguration
	v, err := c.WaitConverged(20 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if v.Has(ids.Named("p1")) || v.Has(ids.Named("p5")) || !v.Has(ids.Named("q1")) {
		t.Errorf("final view %v", v)
	}
	running := ids.NewSet(c.Running()...)
	rep := check.Run(check.Input{
		Recorder: c.Recorder(),
		Initial:  ids.Gen(5),
		Alive:    running.Has,
	})
	if !rep.OK() {
		t.Errorf("two-plane churn violates GMP:\n%v", rep)
	}
}

// TestSubstrateTrafficNeverReachesProtocol: a payload marked
// SubstrateTraffic feeds the detector and stops at the dispatch layer —
// core.Node.Deliver panics on unknown vocabulary, so this is the fence
// that lets load generators share the group's wire.
func TestSubstrateTrafficNeverReachesProtocol(t *testing.T) {
	c := Start(Options{N: 3, HeartbeatEvery: 10 * time.Millisecond, SuspectAfter: 100 * time.Millisecond})
	defer c.Stop()
	if _, err := c.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Delivered via the transport like any frame; if dispatch forwarded
	// it to the state machine the node would panic and the cluster lose
	// the member.
	c.post(ids.Named("p1"), ids.Named("p2"), 0, testBulk{})
	time.Sleep(50 * time.Millisecond)
	if _, err := c.WaitConverged(10 * time.Second); err != nil {
		t.Fatalf("cluster degraded after substrate traffic: %v", err)
	}
	if len(c.Running()) != 3 {
		t.Errorf("running set shrank to %v", c.Running())
	}
}

// testBulk is marked substrate traffic for the fence test.
type testBulk struct{}

func (testBulk) SubstrateTraffic() {}

// 213: a test-only wire kind (internal/transport's own fixtures take 210–212).
func init() { transport.RegisterEmptyPayload(213, testBulk{}) }

// TestHeartbeatGoldenWireFormat pins the beacon's kind tag and layout:
// the zero-allocation fast path depends on this exact encoding.
func TestHeartbeatGoldenWireFormat(t *testing.T) {
	blob, err := transport.EncodeFrame(transport.Frame{From: "p1", To: "p2", Body: Heartbeat{}})
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{heartbeatKind, 2, 'p', '1', 2, 'p', '2', 0, 0}
	if string(blob) != string(want) {
		t.Errorf("heartbeat wire bytes %x, want %x", blob, want)
	}
	f, err := transport.DecodeFrame(blob)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := f.Body.(Heartbeat); !ok {
		t.Errorf("heartbeat decoded to %T", f.Body)
	}
}
