package transport

import (
	"fmt"
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
// channel sequences end to end.
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

// TestTCPMisaddressedFrameDropped: an accepted stream carries one
// channel into its listener's process, so an endpoint must drop frames
// whose To is a different process — the port-reuse hazard: after a
// process dies, the OS can hand its ephemeral port to a newly registered
// one while senders still dial the stale address — and, once the
// stream's first delivered frame has fixed its sender, frames from any
// other sender.
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
	for _, f := range []Frame{
		// Addressed to a dead process whose port b inherited.
		{From: "a", To: "dead", Seq: 1, MsgID: 1, Body: fifoPayload{N: 1}},
		// Correctly addressed: fixes the stream's sender as a.
		{From: "a", To: "b", Seq: 1, MsgID: 2, Body: fifoPayload{N: 2}},
		// A second sender on a's stream.
		{From: "c", To: "b", Seq: 2, MsgID: 3, Body: fifoPayload{N: 3}},
		{From: "a", To: "b", Seq: 3, MsgID: 4, Body: fifoPayload{N: 4}},
	} {
		if err := WriteFrame(conn, f); err != nil {
			t.Fatal(err)
		}
	}
	// One reader handles the stream in order, so once MsgID 4 is in,
	// every frame ahead of it has been judged.
	waitFor(t, 5*time.Second, func() bool { return s.len() >= 1 && s.msg(s.len()-1).MsgID == 4 }, "the last frame")
	s.mu.Lock()
	defer s.mu.Unlock()
	var got []int64
	for _, m := range s.got {
		got = append(got, m.MsgID)
	}
	if len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Fatalf("delivered MsgIDs %v, want [2 4]: only a's frames addressed to b", got)
	}
}

// TestTCPReplayedSequencedFrameDropped: frames on one stream must
// advance their channel's sequence. An unsequenced frame (Seq 0) and
// a frame replayed within the stream (Seq 2 again, then Seq 1) are
// dropped, so the handler sees each of 1, 2, 3 exactly once and in order
// — the §2.1 FIFO channel, checked on the wire.
func TestTCPReplayedSequencedFrameDropped(t *testing.T) {
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
	for _, seq := range []uint64{1, 0, 2, 2, 1, 3} {
		f := Frame{From: "a", To: "b", Seq: seq, MsgID: int64(seq), Body: fifoPayload{N: int(seq)}}
		if err := WriteFrame(conn, f); err != nil {
			t.Fatal(err)
		}
	}
	// One reader handles the stream in order, so once Seq 3 is in, every
	// frame ahead of it has been judged.
	waitFor(t, 5*time.Second, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		for _, m := range s.got {
			if m.MsgID == 3 {
				return true
			}
		}
		return false
	}, "the frame with Seq 3")
	s.mu.Lock()
	defer s.mu.Unlock()
	var got []int
	for _, m := range s.got {
		got = append(got, m.Payload.(fifoPayload).N)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("delivered %v, want [1 2 3]: unsequenced and replayed frames must be dropped", got)
	}
}

// TestTCPOneConnectionPerChannel is the §2.1 channel acceptance test: a
// fully connected group of n processes exchanging traffic on every
// directed channel opens exactly n(n−1) connections — one per directed
// channel, dialed by its sender and accepted by its receiver — and
// ConnsOpen counts each once.
func TestTCPOneConnectionPerChannel(t *testing.T) {
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

	channels := n * (n - 1)
	tr.mu.RLock()
	links := len(tr.links)
	dialed := 0
	for _, l := range tr.links {
		l.mu.Lock()
		if l.conn != nil {
			dialed++
		}
		l.mu.Unlock()
	}
	accepted := 0
	for _, ep := range tr.locals {
		ep.mu.Lock()
		accepted += len(ep.conns)
		ep.mu.Unlock()
	}
	tr.mu.RUnlock()
	if links != channels {
		t.Errorf("%d links for %d procs, want %d", links, n, channels)
	}
	if dialed != channels {
		t.Errorf("%d dialed connections, want exactly %d (one per directed channel)", dialed, channels)
	}
	if accepted != channels {
		t.Errorf("%d accepted sockets, want %d", accepted, channels)
	}
	if got := tr.Stats().ConnsOpen; got != int64(channels) {
		t.Errorf("ConnsOpen = %d, want %d", got, channels)
	}
}

// TestTCPConcurrentFirstSendsBothDirections: two processes that have
// never talked send to each other at the same instant, so both open
// their channel at once. Over 200 fresh pairs, in one instance and
// across two, every frame must arrive exactly once and in order in both
// directions.
func TestTCPConcurrentFirstSendsBothDirections(t *testing.T) {
	const pairs, frames = 200, 5
	for _, shared := range []bool{true, false} {
		name := "two-instances"
		if shared {
			name = "one-instance"
		}
		t.Run(name, func(t *testing.T) {
			trA, trB := NewTCP(), NewTCP()
			if shared {
				trB = trA
			}
			defer trA.Close()
			defer trB.Close()
			for i := 0; i < pairs; i++ {
				p, q := ids.Named(fmt.Sprintf("p%d", i)), ids.Named(fmt.Sprintf("q%d", i))
				var sp, sq sink
				if err := trA.Register(p, sp.handler); err != nil {
					t.Fatal(err)
				}
				if err := trB.Register(q, sq.handler); err != nil {
					t.Fatal(err)
				}
				if !shared {
					addrP, _ := trA.Addr(p)
					addrQ, _ := trB.Addr(q)
					trA.AddPeer(q, addrQ)
					trB.AddPeer(p, addrP)
				}
				start := make(chan struct{})
				var wg sync.WaitGroup
				for _, dir := range []struct {
					tr       *TCP
					from, to ids.ProcID
				}{{trA, p, q}, {trB, q, p}} {
					wg.Add(1)
					go func() {
						defer wg.Done()
						<-start
						for k := 1; k <= frames; k++ {
							dir.tr.Send(dir.from, dir.to, Message{MsgID: int64(k), Payload: fifoPayload{N: k}})
						}
					}()
				}
				close(start)
				wg.Wait()
				for _, s := range []*sink{&sp, &sq} {
					waitFor(t, 5*time.Second, func() bool { return s.len() >= frames }, "both directions")
				}
				time.Sleep(time.Millisecond) // a duplicate would land right behind
				for _, s := range []*sink{&sp, &sq} {
					if s.len() != frames {
						t.Fatalf("pair %d: delivered %d frames, want exactly %d", i, s.len(), frames)
					}
					for k := 0; k < frames; k++ {
						if got := s.msg(k).MsgID; got != int64(k+1) {
							t.Fatalf("pair %d: position %d holds MsgID %d — FIFO violated", i, k, got)
						}
					}
				}
				trA.Unregister(p)
				trB.Unregister(q)
			}
		})
	}
}

// TestTCPConnsOpenGauge: ConnsOpen counts the links this instance has
// dialed and holds established, one per directed channel.
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
	// The first frame on a channel establishes exactly one link.
	tr.Send(a, b, Message{MsgID: 1, Payload: fifoPayload{N: 1}})
	waitFor(t, 5*time.Second, func() bool { return sb.len() == 1 }, "a→b delivery")
	if got := tr.Stats().ConnsOpen; got != 1 {
		t.Errorf("ConnsOpen after a→b = %d, want 1", got)
	}
	// The reverse direction is a channel of its own: a second link.
	tr.Send(b, a, Message{MsgID: 2, Payload: fifoPayload{N: 2}})
	waitFor(t, 5*time.Second, func() bool { return sa.len() == 1 }, "b→a delivery")
	if got := tr.Stats().ConnsOpen; got != 2 {
		t.Errorf("ConnsOpen after b→a = %d, want 2", got)
	}
	tr.Send(a, c, Message{MsgID: 3, Payload: fifoPayload{N: 3}})
	waitFor(t, 5*time.Second, func() bool { return sc.len() == 1 }, "a→c delivery")
	if got := tr.Stats().ConnsOpen; got != 3 {
		t.Errorf("ConnsOpen with three active channels = %d, want 3", got)
	}
	// Unregistering tears down every link from or to the process.
	tr.Unregister(c)
	waitFor(t, 5*time.Second, func() bool { return tr.Stats().ConnsOpen == 2 },
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

// TestTCPStatsCountDropReasons: frames lost to unknown peers, saturated
// queues, and post-close sends must land in distinct counters.
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
