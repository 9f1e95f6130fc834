package transport

import (
	"net"
	"sync"
	"testing"
	"time"

	"procgroup/internal/core"
	"procgroup/internal/ids"
	"procgroup/internal/member"
)

// sink collects delivered messages for one registered process.
type sink struct {
	mu   sync.Mutex
	got  []Message
	from []ids.ProcID
}

func (s *sink) handler(from ids.ProcID, m Message) {
	s.mu.Lock()
	s.got = append(s.got, m)
	s.from = append(s.from, from)
	s.mu.Unlock()
}

func (s *sink) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.got)
}

func (s *sink) msg(i int) Message {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.got[i]
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Test-only wire kinds start at 210: bench_test.go's hb is 200,
// cmd/gmpbench owns 201–202 and bench/predial.go 250.
const (
	kindTestFifo = 210 + iota
	kindTestBeacon
	kindTestText
)

// fifoPayload is a minimal registered payload for ordering tests.
type fifoPayload struct{ N int }

func init() {
	RegisterBinaryPayload(kindTestFifo, fifoPayload{},
		func(e *Encoder, v any) { e.Varint(int64(v.(fifoPayload).N)) },
		func(d *Decoder) any { return fifoPayload{N: int(d.Varint())} })
	// Sequenced like any protocol frame, not beacon-classed: the
	// heartbeat-style test counts every one it sends.
	RegisterEmptyPayload(kindTestBeacon, beacon{})
}

// checkFIFO sends n messages, payload(i) the i-th, on one channel and
// asserts ordered, exactly-once delivery — the §2.1 channel property
// every Transport must provide.
func checkFIFO(t *testing.T, tr Transport, n int, wait time.Duration, payload func(i int) any) {
	t.Helper()
	a, b := ids.Named("a"), ids.Named("b")
	var s sink
	if err := tr.Register(a, func(ids.ProcID, Message) {}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Register(b, s.handler); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		tr.Send(a, b, Message{MsgID: int64(i + 1), Payload: payload(i)})
	}
	waitFor(t, wait, func() bool { return s.len() >= n }, "all messages")
	if s.len() != n {
		t.Fatalf("delivered %d messages, want exactly %d", s.len(), n)
	}
	for i := 0; i < n; i++ {
		m := s.msg(i)
		if m.MsgID != int64(i+1) {
			t.Fatalf("position %d: got MsgID %d — FIFO violated", i, m.MsgID)
		}
		if m.Payload != payload(i) {
			t.Fatalf("position %d: payload %#v", i, m.Payload)
		}
	}
}

// fifoN is the test-payload sequence most checkFIFO callers send.
func fifoN(i int) any { return fifoPayload{N: i} }

func TestInmemFIFO(t *testing.T) {
	tr := NewInmem()
	defer tr.Close()
	checkFIFO(t, tr, 500, 2*time.Second, fifoN)
}

// TestTCPFIFO re-proves §2.1 on the stream plane's reader, which decodes
// every frame inline on its connection goroutine: for the test payload,
// and for core.OK frames — the internal/core wire vocabulary carrying
// mux sequences end to end.
func TestTCPFIFO(t *testing.T) {
	for _, tc := range []struct {
		name    string
		payload func(i int) any
	}{
		{"fifo", fifoN},
		{"core-ok", func(i int) any { return core.OK{Ver: member.Version(i)} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := NewTCP()
			defer tr.Close()
			checkFIFO(t, tr, 500, 10*time.Second, tc.payload)
		})
	}
}

// TestSendToUnknownIsDropped: datagrams to unregistered ids vanish
// silently on every implementation.
func TestSendToUnknownIsDropped(t *testing.T) {
	for _, tc := range []struct {
		name string
		tr   Transport
	}{
		{"inmem", NewInmem()},
		{"tcp", NewTCP()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer tc.tr.Close()
			a := ids.Named("a")
			if err := tc.tr.Register(a, func(ids.ProcID, Message) {}); err != nil {
				t.Fatal(err)
			}
			tc.tr.Send(a, ids.Named("ghost"), Message{MsgID: 1, Payload: fifoPayload{}})
		})
	}
}

// TestDuplicateRegistrationFails on every implementation.
func TestDuplicateRegistrationFails(t *testing.T) {
	for _, tc := range []struct {
		name string
		tr   Transport
	}{
		{"inmem", NewInmem()},
		{"tcp", NewTCP()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer tc.tr.Close()
			a := ids.Named("a")
			if err := tc.tr.Register(a, func(ids.ProcID, Message) {}); err != nil {
				t.Fatal(err)
			}
			if err := tc.tr.Register(a, func(ids.ProcID, Message) {}); err == nil {
				t.Fatal("duplicate registration accepted")
			}
		})
	}
}

// TestTCPUnregisterDropsThenReconnect: killing an endpoint makes sends to
// it vanish like datagrams to a dead host, and a later re-registration
// (fresh port) is reachable again through the per-frame redial.
func TestTCPUnregisterDropsThenReconnect(t *testing.T) {
	tr := NewTCP()
	defer tr.Close()
	a, b := ids.Named("a"), ids.Named("b")
	var s sink
	if err := tr.Register(a, func(ids.ProcID, Message) {}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Register(b, s.handler); err != nil {
		t.Fatal(err)
	}
	tr.Send(a, b, Message{MsgID: 1, Payload: fifoPayload{N: 1}})
	waitFor(t, 5*time.Second, func() bool { return s.len() == 1 }, "first delivery")

	tr.Unregister(b)
	// These race the writer noticing the endpoint died; they must be
	// dropped or fail quietly, never panic or wedge.
	for i := 0; i < 10; i++ {
		tr.Send(a, b, Message{MsgID: 2, Payload: fifoPayload{N: 2}})
	}

	var s2 sink
	if err := tr.Register(b, s2.handler); err != nil {
		t.Fatal(err)
	}
	// The writer holds a dead connection and drops one frame discovering
	// it; keep sending until one lands on the new endpoint.
	waitFor(t, 10*time.Second, func() bool {
		tr.Send(a, b, Message{MsgID: 3, Payload: fifoPayload{N: 3}})
		return s2.len() > 0
	}, "redelivery after re-register")
}

// TestTCPHeartbeatStyleTraffic mixes protocol payloads with MsgID-0
// beacons, as the live runtime does.
func TestTCPHeartbeatStyleTraffic(t *testing.T) {
	tr := NewTCP()
	defer tr.Close()
	a, b := ids.Named("a"), ids.Named("b")
	var s sink
	if err := tr.Register(a, func(ids.ProcID, Message) {}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Register(b, s.handler); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		tr.Send(a, b, Message{MsgID: 0, Payload: beacon{}})
		tr.Send(a, b, Message{MsgID: int64(i + 1), Payload: core.OK{Ver: member.Version(i)}})
	}
	waitFor(t, 10*time.Second, func() bool { return s.len() == 40 }, "all traffic")
}

type beacon struct{}

// TestCloseIsIdempotent on every implementation.
func TestCloseIsIdempotent(t *testing.T) {
	for _, tc := range []struct {
		name string
		tr   Transport
	}{
		{"inmem", NewInmem()},
		{"tcp", NewTCP()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := ids.Named("a")
			if err := tc.tr.Register(a, func(ids.ProcID, Message) {}); err != nil {
				t.Fatal(err)
			}
			tc.tr.Close()
			tc.tr.Close()
			if err := tc.tr.Register(a, func(ids.ProcID, Message) {}); err == nil {
				t.Fatal("registration accepted after Close")
			}
			tc.tr.Send(a, a, Message{MsgID: 1, Payload: fifoPayload{}}) // must not panic
		})
	}
}

// TestTCPMisaddressedFrameDropped: an endpoint must drop frames whose To
// is a different process — the port-reuse hazard: after a process dies,
// the OS can hand its ephemeral port to a newly registered one while
// senders still dial the stale address.
func TestTCPMisaddressedFrameDropped(t *testing.T) {
	tr := NewTCP()
	defer tr.Close()
	b := ids.Named("b")
	var s sink
	if err := tr.Register(b, s.handler); err != nil {
		t.Fatal(err)
	}
	addr, _ := tr.Addr(b)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A frame addressed to a dead process whose port b inherited.
	if err := WriteFrame(conn, Frame{From: "a", To: "dead", MsgID: 1, Body: fifoPayload{N: 1}}); err != nil {
		t.Fatal(err)
	}
	// A correctly addressed frame on the same stream.
	if err := WriteFrame(conn, Frame{From: "a", To: "b", MsgID: 2, Body: fifoPayload{N: 2}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return s.len() >= 1 }, "the addressed frame")
	if s.len() != 1 || s.msg(0).MsgID != 2 {
		t.Fatalf("got %d deliveries, first MsgID %d; want only the frame addressed to b", s.len(), s.msg(0).MsgID)
	}
}

// TestTCPOneConnectionPerPair is the mux acceptance test: a fully
// connected group of n processes exchanging traffic on every directed
// channel must open exactly n(n−1)/2 connections — one per unordered peer
// pair — not one per directed channel.
func TestTCPOneConnectionPerPair(t *testing.T) {
	tr := NewTCP()
	defer tr.Close()
	const n = 4
	procs := make([]ids.ProcID, n)
	sinks := make([]sink, n)
	for i := range procs {
		procs[i] = ids.Named(string(rune('a' + i)))
		if err := tr.Register(procs[i], sinks[i].handler); err != nil {
			t.Fatal(err)
		}
	}
	want := 0
	for i, p := range procs {
		for _, q := range procs {
			if p == q {
				continue
			}
			tr.Send(p, q, Message{MsgID: int64(i + 1), Payload: fifoPayload{N: i}})
			want++
		}
	}
	waitFor(t, 10*time.Second, func() bool {
		got := 0
		for i := range sinks {
			got += sinks[i].len()
		}
		return got >= want
	}, "all-to-all traffic")

	pairs := n * (n - 1) / 2
	tr.mu.RLock()
	muxes := len(tr.pairs)
	conns := 0
	for _, m := range tr.pairs {
		m.mu.Lock()
		if m.conn != nil {
			conns++
		}
		m.mu.Unlock()
	}
	accepted := 0
	for _, ep := range tr.locals {
		ep.mu.Lock()
		accepted += len(ep.conns)
		ep.mu.Unlock()
	}
	tr.mu.RUnlock()
	if muxes != pairs {
		t.Errorf("%d pair muxes for %d procs, want %d", muxes, n, pairs)
	}
	if conns != pairs {
		t.Errorf("%d established connections, want exactly %d (one per unordered pair)", conns, pairs)
	}
	// Every pair connection terminates in exactly one accepted socket, so
	// a per-directed-channel design (2 per pair) would double this.
	if accepted != pairs {
		t.Errorf("%d accepted sockets, want %d", accepted, pairs)
	}
}

// TestTCPStatsCountDropReasons: frames lost to unknown peers, saturated
// queues, and post-close sends must land in distinct counters.
func TestTCPConnsOpenGauge(t *testing.T) {
	tr := NewTCP()
	defer tr.Close()
	a, b, c := ids.Named("a"), ids.Named("b"), ids.Named("c")
	var sa, sb, sc sink
	for _, reg := range []struct {
		p ids.ProcID
		s *sink
	}{{a, &sa}, {b, &sb}, {c, &sc}} {
		if err := tr.Register(reg.p, reg.s.handler); err != nil {
			t.Fatal(err)
		}
	}
	if got := tr.Stats().ConnsOpen; got != 0 {
		t.Fatalf("ConnsOpen before any traffic = %d, want 0 (dialing is lazy)", got)
	}
	// First frame on a pair establishes exactly one link.
	tr.Send(a, b, Message{MsgID: 1, Payload: fifoPayload{N: 1}})
	waitFor(t, 5*time.Second, func() bool { return sb.len() == 1 }, "a→b delivery")
	if got := tr.Stats().ConnsOpen; got != 1 {
		t.Errorf("ConnsOpen after a→b = %d, want 1", got)
	}
	// The reverse direction rides the same socket: still one link.
	tr.Send(b, a, Message{MsgID: 2, Payload: fifoPayload{N: 2}})
	waitFor(t, 5*time.Second, func() bool { return sa.len() == 1 }, "b→a delivery")
	if got := tr.Stats().ConnsOpen; got != 1 {
		t.Errorf("ConnsOpen after b→a on the same pair = %d, want 1", got)
	}
	tr.Send(a, c, Message{MsgID: 3, Payload: fifoPayload{N: 3}})
	waitFor(t, 5*time.Second, func() bool { return sc.len() == 1 }, "a→c delivery")
	if got := tr.Stats().ConnsOpen; got != 2 {
		t.Errorf("ConnsOpen with two active pairs = %d, want 2", got)
	}
	// Unregistering tears down every pair touching the process.
	tr.Unregister(c)
	waitFor(t, 5*time.Second, func() bool { return tr.Stats().ConnsOpen == 1 },
		"gauge to drop after Unregister")
}

func TestInmemConnsOpenAlwaysZero(t *testing.T) {
	tr := NewInmem()
	defer tr.Close()
	var s sink
	if err := tr.Register(ids.Named("a"), s.handler); err != nil {
		t.Fatal(err)
	}
	if err := tr.Register(ids.Named("b"), s.handler); err != nil {
		t.Fatal(err)
	}
	tr.Send(ids.Named("a"), ids.Named("b"), Message{MsgID: 1, Payload: fifoPayload{}})
	if got := tr.Stats().ConnsOpen; got != 0 {
		t.Errorf("inmem ConnsOpen = %d, want 0 (connectionless)", got)
	}
}

func TestTCPStatsCountDropReasons(t *testing.T) {
	oldDepth := tcpQueueDepth
	tcpQueueDepth = 1
	defer func() { tcpQueueDepth = oldDepth }()

	tr := NewTCP()
	a, b, ghost := ids.Named("a"), ids.Named("b"), ids.Named("ghost")
	if err := tr.Register(a, func(ids.ProcID, Message) {}); err != nil {
		t.Fatal(err)
	}

	// Unknown peer: no address at all.
	tr.Send(a, ghost, Message{MsgID: 1, Payload: fifoPayload{}})
	waitFor(t, 5*time.Second, func() bool { return tr.Stats().UnknownPeer >= 1 }, "unknown-peer drop")

	// Saturation: the writer blocks dialing an unroutable address while
	// more sends than the queue holds pile up behind it.
	tr.AddPeer(b, "10.255.255.1:9") // RFC 1918 blackhole: dial hangs until timeout
	for i := 0; i < 10; i++ {
		tr.Send(a, b, Message{MsgID: int64(i + 2), Payload: fifoPayload{N: i}})
	}
	waitFor(t, 10*time.Second, func() bool { return tr.Stats().QueueSaturated >= 1 }, "queue-saturated drop")

	tr.Close()
	tr.Send(a, ghost, Message{MsgID: 99, Payload: fifoPayload{}})
	if got := tr.Stats().Closed; got < 1 {
		t.Errorf("Closed = %d after post-close send, want ≥ 1", got)
	}
	if total := tr.Stats().Dropped(); total < 3 {
		t.Errorf("Dropped() = %d, want the sum of all reasons (≥ 3)", total)
	}
}

// TestTCPStatsCountDialFailures: sends to a dead (closed) endpoint must
// surface as DialFailed, not vanish into the same bucket as congestion.
func TestTCPStatsCountDialFailures(t *testing.T) {
	tr := NewTCP()
	defer tr.Close()
	a, b := ids.Named("a"), ids.Named("b")
	if err := tr.Register(a, func(ids.ProcID, Message) {}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Register(b, func(ids.ProcID, Message) {}); err != nil {
		t.Fatal(err)
	}
	tr.Unregister(b) // b's listener closes; its address goes stale
	tr.Send(a, b, Message{MsgID: 1, Payload: fifoPayload{}})
	waitFor(t, 5*time.Second, func() bool { return tr.Stats().DialFailed >= 1 }, "dial-failed drop")
}

// TestInmemStats: the in-process transport distinguishes unknown peers
// from post-close sends too.
func TestInmemStats(t *testing.T) {
	tr := NewInmem()
	a := ids.Named("a")
	if err := tr.Register(a, func(ids.ProcID, Message) {}); err != nil {
		t.Fatal(err)
	}
	tr.Send(a, ids.Named("ghost"), Message{MsgID: 1, Payload: fifoPayload{}})
	if got := tr.Stats().UnknownPeer; got != 1 {
		t.Errorf("UnknownPeer = %d, want 1", got)
	}
	tr.Close()
	tr.Send(a, a, Message{MsgID: 2, Payload: fifoPayload{}})
	if got := tr.Stats().Closed; got != 1 {
		t.Errorf("Closed = %d, want 1", got)
	}
}

// TestSendCloseRace hammers Send from several goroutines while Close runs
// concurrently, on all three transports. The close path must be
// race-clean (this test exists for -race) and must never panic or wedge a
// sender.
func TestSendCloseRace(t *testing.T) {
	for _, tc := range []struct {
		name string
		make func() Transport
	}{
		{"inmem", func() Transport { return NewInmem() }},
		{"tcp", func() Transport { return NewTCP() }},
		{"chaos", func() Transport {
			return NewChaos(NewInmem(), ChaosOptions{Default: ChaosLink{Jitter: time.Millisecond, Loss: 0.1}})
		}},
		{"udp", func() Transport { return NewUDP() }},
		{"twoplane", func() Transport { return NewTwoPlane(NewTCP(), NewUDP()) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := tc.make()
			procs := []ids.ProcID{ids.Named("a"), ids.Named("b"), ids.Named("c")}
			for _, p := range procs {
				if err := tr.Register(p, func(ids.ProcID, Message) {}); err != nil {
					t.Fatal(err)
				}
			}
			var wg sync.WaitGroup
			stop := make(chan struct{})
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						from := procs[i%len(procs)]
						to := procs[(i+1+g)%len(procs)]
						tr.Send(from, to, Message{MsgID: int64(i + 1), Payload: fifoPayload{N: i}})
					}
				}(g)
			}
			time.Sleep(20 * time.Millisecond) // let traffic flow before the rug-pull
			if err := tr.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
			close(stop)
			wg.Wait()
			tr.Send(procs[0], procs[1], Message{MsgID: 1, Payload: fifoPayload{}}) // post-close send must not panic
		})
	}
}

// TestBeaconCoalescingInQueue: beacons queued behind a stuck link
// coalesce to one queued beacon — a second undelivered beacon carries no
// extra liveness information — while protocol frames are all retained in
// FIFO order. tcpPostDialHook holds the pair writer inside its first dial
// (after it has popped a warm-up frame), so the queue is observed with
// nothing draining it.
func TestBeaconCoalescingInQueue(t *testing.T) {
	tr := NewTCP()
	defer tr.Close()
	a, b := ids.Named("a"), ids.Named("b")
	var s sink
	if err := tr.Register(a, func(ids.ProcID, Message) {}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Register(b, s.handler); err != nil {
		t.Fatal(err)
	}
	inDial, release := make(chan struct{}), make(chan struct{})
	tcpPostDialHook = func(ids.ProcID, ids.ProcID) {
		tcpPostDialHook = nil
		close(inDial)
		<-release
	}
	defer func() { tcpPostDialHook = nil }()
	tr.Send(a, b, Message{MsgID: 1, Payload: fifoPayload{N: 0}}) // warm-up: dials
	select {
	case <-inDial:
	case <-time.After(10 * time.Second):
		close(release)
		t.Fatal("the pair writer never reached its dial")
	}

	for i := 0; i < 50; i++ {
		tr.Send(a, b, Message{Payload: hb{}}) // hb is a registered beacon (bench_test.go)
	}
	for i := 0; i < 50; i++ {
		tr.Send(a, b, Message{MsgID: int64(i + 2), Payload: fifoPayload{N: i + 1}})
	}
	m := pairMuxOf(t, tr, a, b)
	m.mu.Lock()
	pending := m.pending
	beacons := 0
	for _, q := range m.queues {
		for _, n := range q.beacons {
			beacons += n
		}
	}
	m.mu.Unlock()
	close(release)
	if beacons != 1 {
		t.Errorf("%d beacons queued, want exactly 1 (coalesced)", beacons)
	}
	if pending != 51 {
		t.Errorf("pending = %d, want 50 protocol frames and 1 beacon", pending)
	}
	if sat := tr.Stats().QueueSaturated; sat != 0 {
		t.Errorf("coalescing counted as drops: QueueSaturated = %d", sat)
	}
	// Released, the link delivers the warm-up, the one beacon and the
	// whole protocol backlog.
	waitFor(t, 10*time.Second, func() bool { return s.len() == 52 }, "the drained queue")
}
