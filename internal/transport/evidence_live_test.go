package transport_test

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"procgroup/internal/event"
	"procgroup/internal/fd"
	"procgroup/internal/ids"
	"procgroup/internal/live"
	"procgroup/internal/transport"
)

// These tests run a live group on the two-plane wire (TCP streams, UDP
// beacons) under the benchmark's detector shape — hysteresis over a
// fixed timeout — to check closed-stream evidence end to end.

// countingDetector counts the closed-stream evidence its node is handed.
type countingDetector struct {
	fd.Detector
	closed *atomic.Int64
}

func (d countingDetector) Closed(q ids.ProcID, at time.Time) {
	d.closed.Add(1)
	d.Detector.Closed(q, at)
}

// evidenceGroup starts n members on TwoPlane(TCP, UDP) with 10 ms beats
// and a hysteresis detector (20 ms dwell) over a fixed timeout of
// suspectAfter.
func evidenceGroup(t *testing.T, n int, suspectAfter time.Duration) (*live.Cluster, *transport.TCP, *fd.HysteresisStats, *atomic.Int64) {
	t.Helper()
	stats, closed := &fd.HysteresisStats{}, &atomic.Int64{}
	inner := fd.NewHysteresisFactory(fd.NewTimeoutFactory(suspectAfter),
		fd.HysteresisOptions{Dwell: 20 * time.Millisecond, FlapPenalty: 1, Stats: stats})
	tcp := transport.NewTCP()
	c := live.Start(live.Options{
		N:              n,
		HeartbeatEvery: 10 * time.Millisecond,
		SuspectAfter:   suspectAfter,
		Detector:       func() fd.Detector { return countingDetector{Detector: inner(), closed: closed} },
		Transport:      transport.NewTwoPlane(tcp, transport.NewUDP()),
	})
	if _, err := c.WaitConverged(10 * time.Second); err != nil {
		c.Stop()
		t.Fatal(err)
	}
	return c, tcp, stats, closed
}

// nudge is stream traffic the live runtime drops at dispatch. The tests
// send it to open a channel's stream: a group that has carried no protocol
// traffic yet has none (its first view is installed from the roster).
type nudge struct{}

func (nudge) SubstrateTraffic() {}

func init() { transport.RegisterEmptyPayload(220, nudge{}) }

// openStream nudges p→q until the channel's stream is established and
// returns it.
func openStream(t *testing.T, c *live.Cluster, tcp *transport.TCP, p, q ids.ProcID) net.Conn {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if conn := tcp.PairStream(p, q); conn != nil {
			return conn
		}
		c.Transport().Send(p, q, transport.Message{Payload: nudge{}})
	}
	t.Fatalf("the %v→%v stream never came up", p, q)
	return nil
}

// TestTwoPlaneKillDetectedInUnderHalfThreshold: a killed member's
// streams end at once, so its monitors suspect it after a quarter of the
// 80 ms threshold of silence — under half the threshold after the kill,
// where beacon silence alone takes the threshold plus the dwell.
func TestTwoPlaneKillDetectedInUnderHalfThreshold(t *testing.T) {
	if testing.Short() {
		t.Skip("asserts a wall-clock detection bound")
	}
	const suspectAfter = 80 * time.Millisecond
	c, tcp, _, closed := evidenceGroup(t, 5, suspectAfter)
	defer c.Stop()
	victim := ids.Named("p5")
	for _, p := range ids.Gen(4) {
		openStream(t, c, tcp, p, victim)
	}
	killedAt := time.Since(c.StartedAt()).Microseconds()
	c.Kill(victim)
	if _, err := c.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	first := int64(-1)
	for _, e := range c.Recorder().Events() {
		if e.Kind == event.Faulty && e.Other == victim && (first < 0 || e.Time < first) {
			first = e.Time
		}
	}
	if first < 0 {
		t.Fatal("no member recorded the victim as faulty")
	}
	if closed.Load() == 0 {
		t.Fatal("no detector was handed closed-stream evidence about the victim")
	}
	d := time.Duration(first-killedAt) * time.Microsecond
	if d >= suspectAfter/2 {
		t.Fatalf("kill detected after %v, want under %v", d, suspectAfter/2)
	}
	t.Logf("kill detected after %v", d)
}

// TestTwoPlaneForceClosedStreamOfLivePeerIsNotSuspected: closed-stream
// evidence is a hint, never a verdict. The p1→p2 channel stream is torn
// down again and again while both keep beaconing; each end is handed
// evidence about the other every time, and neither is ever
// suspected, so the group stays in its first view.
func TestTwoPlaneForceClosedStreamOfLivePeerIsNotSuspected(t *testing.T) {
	c, tcp, stats, closed := evidenceGroup(t, 5, 120*time.Millisecond)
	defer c.Stop()
	p1, p2 := ids.Named("p1"), ids.Named("p2")
	const rounds = 10
	for i := 0; i < rounds; i++ {
		openStream(t, c, tcp, p1, p2).Close()
		time.Sleep(40 * time.Millisecond)
	}
	time.Sleep(200 * time.Millisecond) // past the last evidence window
	if got := closed.Load(); got < rounds {
		t.Fatalf("detectors were handed %d closed-stream reports for %d closes", got, rounds)
	}
	if n := stats.Crossings.Load(); n != 0 {
		t.Errorf("%d threshold crossings while every member kept beaconing", n)
	}
	for _, e := range c.Recorder().Events() {
		if e.Kind == event.Faulty {
			t.Fatalf("%v suspected %v with every member alive", e.Proc, e.Other)
		}
	}
	v, err := c.WaitConverged(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if v.Version() != 0 || v.Size() != 5 {
		t.Fatalf("view changed to %v", v)
	}
}
