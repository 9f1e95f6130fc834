package transport

import (
	"net"
	"testing"
	"time"

	"procgroup/internal/ids"
)

// closedFrom lists the peers s received closed-stream evidence about, in
// arrival order.
func (s *sink) closedFrom() []ids.ProcID {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []ids.ProcID
	for i, m := range s.got {
		if _, ok := m.Payload.(PeerClosed); ok {
			out = append(out, s.from[i])
		}
	}
	return out
}

// connectedTCP registers a and b on one TCP instance and opens their
// pair stream with one delivered frame.
func connectedTCP(t *testing.T) (tr *TCP, a, b ids.ProcID, sa, sb *sink) {
	t.Helper()
	tr = NewTCP()
	a, b = ids.Named("a"), ids.Named("b")
	sa, sb = &sink{}, &sink{}
	if err := tr.Register(a, sa.handler); err != nil {
		t.Fatal(err)
	}
	if err := tr.Register(b, sb.handler); err != nil {
		t.Fatal(err)
	}
	tr.Send(a, b, Message{MsgID: 1, Payload: fifoPayload{N: 1}})
	waitFor(t, 5*time.Second, func() bool { return sb.len() == 1 }, "the pair's first frame")
	return tr, a, b, sa, sb
}

// TestTCPUnregisterHandsPeerClosedToRegisteredEnd: the same-host model of
// a crash. Unregister(b) stops the pair, and a — still registered on the
// instance — gets exactly one PeerClosed from b. The departing end gets
// none.
func TestTCPUnregisterHandsPeerClosedToRegisteredEnd(t *testing.T) {
	tr, _, b, sa, sb := connectedTCP(t)
	defer tr.Close()
	tr.Unregister(b)
	waitFor(t, 5*time.Second, func() bool { return len(sa.closedFrom()) > 0 }, "evidence at a")
	time.Sleep(50 * time.Millisecond) // let the pair's readers wind down
	if got := sa.closedFrom(); len(got) != 1 || got[0] != b {
		t.Fatalf("a got evidence about %v, want exactly one about %v", got, b)
	}
	if got := sb.closedFrom(); len(got) != 0 {
		t.Fatalf("the unregistered end got evidence about %v", got)
	}
}

// TestTCPPeerEOFHandsPeerClosed: across two instances (two OS processes
// in production), the far instance going away ends the stream with EOF,
// and the surviving end is told. The far end's own Unregister tells it
// nothing.
func TestTCPPeerEOFHandsPeerClosed(t *testing.T) {
	trA, trB := NewTCP(), NewTCP()
	defer trA.Close()
	defer trB.Close()
	a, b := ids.Named("a"), ids.Named("b")
	var sa, sb sink
	if err := trA.Register(a, sa.handler); err != nil {
		t.Fatal(err)
	}
	if err := trB.Register(b, sb.handler); err != nil {
		t.Fatal(err)
	}
	addrB, _ := trB.Addr(b)
	trA.AddPeer(b, addrB)
	trA.Send(a, b, Message{MsgID: 1, Payload: fifoPayload{N: 1}})
	waitFor(t, 5*time.Second, func() bool { return sb.len() == 1 }, "the pair's first frame")

	trB.Unregister(b)
	waitFor(t, 5*time.Second, func() bool { return len(sa.closedFrom()) > 0 }, "evidence at a")
	if got := sa.closedFrom(); got[0] != b {
		t.Fatalf("a got evidence about %v, want %v", got, b)
	}
	if got := sb.closedFrom(); len(got) != 0 {
		t.Fatalf("b got evidence about %v after its own Unregister", got)
	}
}

// TestTCPRefusedDialHandsPeerClosed: a dial to an address nothing listens
// on is refused at once, and the dialing end is told.
func TestTCPRefusedDialHandsPeerClosed(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()

	tr := NewTCP()
	defer tr.Close()
	a, b := ids.Named("a"), ids.Named("b")
	var sa sink
	if err := tr.Register(a, sa.handler); err != nil {
		t.Fatal(err)
	}
	tr.AddPeer(b, dead)
	tr.Send(a, b, Message{MsgID: 1, Payload: fifoPayload{N: 1}})
	waitFor(t, 5*time.Second, func() bool { return len(sa.closedFrom()) > 0 }, "evidence of the refused dial")
	if got := sa.closedFrom(); got[0] != b {
		t.Fatalf("a got evidence about %v, want %v", got, b)
	}
}

// TestTCPCloseGivesNoEvidence: tearing the whole transport down is the
// local ends' own doing, not news about any peer.
func TestTCPCloseGivesNoEvidence(t *testing.T) {
	tr, _, _, sa, sb := connectedTCP(t)
	tr.Send(ids.Named("b"), ids.Named("a"), Message{MsgID: 2, Payload: fifoPayload{N: 2}})
	waitFor(t, 5*time.Second, func() bool { return sa.len() == 1 }, "the reverse frame")
	tr.Close()
	time.Sleep(50 * time.Millisecond)
	if ea, eb := sa.closedFrom(), sb.closedFrom(); len(ea)+len(eb) != 0 {
		t.Fatalf("Close produced evidence: a about %v, b about %v", ea, eb)
	}
}

// TestInmemAndUDPGiveNoEvidence: only the stream plane has streams to
// lose; the in-process and datagram transports never synthesize
// PeerClosed.
func TestInmemAndUDPGiveNoEvidence(t *testing.T) {
	for name, tr := range map[string]Transport{"inmem": NewInmem(), "udp": NewUDP()} {
		t.Run(name, func(t *testing.T) {
			defer tr.Close()
			a, b := ids.Named("a"), ids.Named("b")
			var sa sink
			if err := tr.Register(a, sa.handler); err != nil {
				t.Fatal(err)
			}
			if err := tr.Register(b, func(ids.ProcID, Message) {}); err != nil {
				t.Fatal(err)
			}
			tr.Send(b, a, Message{Payload: hb{}})
			tr.Unregister(b)
			tr.Send(a, b, Message{Payload: hb{}})
			time.Sleep(50 * time.Millisecond)
			if got := sa.closedFrom(); len(got) != 0 {
				t.Fatalf("%s produced evidence about %v", name, got)
			}
		})
	}
}
