package transport

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"procgroup/internal/ids"
)

// These are the deterministic regression tests for the TCP simultaneous-
// open fix: when both ends of a pair dial each other at once, both must
// keep the connection initiated by the *smaller* pair end — an end that
// kept whichever socket happened to land first would write into a
// connection its peer has already abandoned, silently breaking the §2.1
// reliable-FIFO channel. tcpPostDialHook freezes ensureConn inside its
// dial window while the test injects the opposing adopt, forcing the
// exact interleaving instead of racing for it.

// pairMuxOf waits for the transport to hold a mux for {a, b}.
func pairMuxOf(t *testing.T, tr *TCP, a, b ids.ProcID) *pairMux {
	t.Helper()
	k := pairOf(a, b)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		tr.mu.RLock()
		m := tr.pairs[k]
		tr.mu.RUnlock()
		if m != nil {
			return m
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("pair mux never created")
	return nil
}

// injectAdopt dials tr's listener for acceptor raw and introduces itself
// as init — the opposing leg of a simultaneous open — then waits until
// the pair mux has adopted it. Returns the test-held end of the socket.
func injectAdopt(t *testing.T, tr *TCP, init, acceptor ids.ProcID) net.Conn {
	t.Helper()
	addr, ok := tr.Addr(acceptor)
	if !ok {
		t.Fatalf("no listener address for %v", acceptor)
	}
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("inject dial: %v", err)
	}
	if err := WriteFrame(c, Frame{From: init.String(), To: acceptor.String(), Body: muxHello{}}); err != nil {
		t.Fatalf("inject hello: %v", err)
	}
	m := pairMuxOf(t, tr, init, acceptor)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		m.mu.Lock()
		adopted := m.conn != nil && m.connInit == init
		m.mu.Unlock()
		if adopted {
			return c
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("injected connection never adopted")
	return nil
}

// TestTCPSimultaneousOpenDialerWins: the dialing end is the smaller pair
// end, so its own dialed connection must win — the injected inbound
// socket (the larger end's leg of the simultaneous open) is adopted
// mid-dial and must then be abandoned, and every queued frame must reach
// the peer over the surviving connection in FIFO order.
func TestTCPSimultaneousOpenDialerWins(t *testing.T) {
	trA, trB := NewTCP(), NewTCP()
	defer trA.Close()
	defer trB.Close()
	a, b := ids.Named("a"), ids.Named("b") // a < b: a's dial must win

	var mu sync.Mutex
	var got []int
	if err := trA.Register(a, func(ids.ProcID, Message) {}); err != nil {
		t.Fatal(err)
	}
	if err := trB.Register(b, func(_ ids.ProcID, m Message) {
		mu.Lock()
		got = append(got, int(m.MsgID))
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	addrB, _ := trB.Addr(b)
	trA.AddPeer(b, addrB)

	// The hook runs on trA's mux writer mid-ensureConn: trA has dialed
	// trB and is about to re-examine the pair — inject b's opposing leg
	// now, so the writer resumes facing an adopted rival connection.
	var raw net.Conn
	hookDone := make(chan struct{})
	tcpPostDialHook = func(init, dialTo ids.ProcID) {
		tcpPostDialHook = nil // fire exactly once, for a's dial only
		raw = injectAdopt(t, trA, b, a)
		close(hookDone)
	}
	defer func() { tcpPostDialHook = nil }()

	const n = 100
	for i := 1; i <= n; i++ {
		trA.Send(a, b, Message{MsgID: int64(i), Payload: fifoPayload{N: i}})
	}
	select {
	case <-hookDone:
	case <-time.After(10 * time.Second):
		t.Fatal("ensureConn never reached the simultaneous-open window")
	}

	// The smaller end's dial won: trA must abandon the injected socket.
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := ReadFrame(raw); err == nil {
		t.Fatal("trA wrote into the abandoned (larger-initiator) connection")
	}
	raw.Close()

	// And the queued traffic arrives intact, in order, over the winner.
	waitFor(t, 10*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == n
	}, fmt.Sprintf("%d frames after simultaneous open", n))
	mu.Lock()
	defer mu.Unlock()
	for i, id := range got {
		if id != i+1 {
			t.Fatalf("FIFO broken across simultaneous open: position %d = msg %d", i, id)
		}
	}
}

// TestTCPSimultaneousOpenAcceptorWins: the dialing end is the *larger*
// pair end, so the adopted connection (initiated by the smaller end) must
// win and the dial be discarded — proven by reading the frames off the
// injected socket itself: the transport must write its queued traffic
// into the peer-initiated connection, not the one it dialed.
func TestTCPSimultaneousOpenAcceptorWins(t *testing.T) {
	trA, trB := NewTCP(), NewTCP()
	defer trA.Close()
	defer trB.Close()
	a, b := ids.Named("a"), ids.Named("b") // b dials: a's injected leg must win

	if err := trA.Register(a, func(ids.ProcID, Message) {}); err != nil {
		t.Fatal(err)
	}
	if err := trB.Register(b, func(ids.ProcID, Message) {}); err != nil {
		t.Fatal(err)
	}
	addrA, _ := trA.Addr(a)
	trB.AddPeer(a, addrA)

	var raw net.Conn
	hookDone := make(chan struct{})
	tcpPostDialHook = func(init, dialTo ids.ProcID) {
		tcpPostDialHook = nil
		raw = injectAdopt(t, trB, a, b)
		close(hookDone)
	}
	defer func() { tcpPostDialHook = nil }()

	trB.Send(b, a, Message{MsgID: 7, Payload: fifoPayload{N: 7}})
	select {
	case <-hookDone:
	case <-time.After(10 * time.Second):
		t.Fatal("ensureConn never reached the simultaneous-open window")
	}

	// The queued frame must surface on the injected (smaller-initiator)
	// socket — the far end of the connection trB was obliged to keep.
	raw.SetReadDeadline(time.Now().Add(10 * time.Second))
	f, err := ReadFrame(raw)
	if err != nil {
		t.Fatalf("trB never wrote into the peer-initiated connection: %v", err)
	}
	if f.From != b.String() || f.To != a.String() || f.MsgID != 7 {
		t.Fatalf("unexpected frame on the surviving connection: %+v", f)
	}
	raw.Close()
}

// TestTCPOwnLoopbackLegIsNotARival: with both pair ends in ONE instance,
// the accept side can adopt the far end of the dialer's own socket inside
// the dial window. ensureConn used to read that as a simultaneous open it
// lost and close its dialed socket — the peer of the one it kept — so the
// pair's first frames went into a dead connection with no drop counted.
// The hook holds the window open until the adopt has landed, then the
// first frame must arrive and nothing may be dropped.
func TestTCPOwnLoopbackLegIsNotARival(t *testing.T) {
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

	hookDone := make(chan struct{})
	tcpPostDialHook = func(init, dialTo ids.ProcID) {
		tcpPostDialHook = nil
		defer close(hookDone)
		tr.mu.RLock()
		m := tr.pairs[pairOf(a, b)] // the mux whose writer is running this hook
		tr.mu.RUnlock()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			m.mu.Lock()
			adopted := m.conn != nil && m.connInit == init
			m.mu.Unlock()
			if adopted {
				return
			}
			time.Sleep(time.Millisecond)
		}
		t.Error("accept side never adopted the dialed connection's far end")
	}
	defer func() { tcpPostDialHook = nil }()

	tr.Send(a, b, Message{MsgID: 1, Payload: fifoPayload{N: 1}})
	select {
	case <-hookDone:
	case <-time.After(10 * time.Second):
		t.Fatal("ensureConn never reached the dial window")
	}
	waitFor(t, 3*time.Second, func() bool { return s.len() == 1 }, "the pair's first frame")
	if m := s.msg(0); m.MsgID != 1 {
		t.Fatalf("first delivery = %+v, want MsgID 1", m)
	}
	if st := tr.Stats(); st.Dropped() != 0 || st.ConnsOpen != 1 {
		t.Fatalf("stats after the first frame = %+v, want no drop on one open link", st)
	}
	// The reverse direction shares the link and the dialed end.
	tr.Send(b, a, Message{MsgID: 2, Payload: fifoPayload{N: 2}})
	tr.Send(a, b, Message{MsgID: 3, Payload: fifoPayload{N: 3}})
	waitFor(t, 3*time.Second, func() bool { return s.len() == 2 }, "traffic after the first frame")
	if st := tr.Stats(); st.Dropped() != 0 {
		t.Fatalf("stats = %+v, want no drop", st)
	}
}
