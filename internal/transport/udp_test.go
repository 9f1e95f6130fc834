package transport

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"procgroup/internal/core"
	"procgroup/internal/ids"
)

// TestUDPDelivery: beacons cross the datagram plane intact — identity
// and payload — and nothing else does: a protocol frame sent as a
// datagram is refused at the receiver. Loopback UDP does not reorder in
// practice, but the test only demands arrival of the beacon, matching
// the plane's best-effort contract.
func TestUDPDelivery(t *testing.T) {
	tr := NewUDP()
	defer tr.Close()
	a, b := ids.Named("a"), ids.Named("b")
	var s sink
	if err := tr.Register(a, func(ids.ProcID, Message) {}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Register(b, s.handler); err != nil {
		t.Fatal(err)
	}
	tr.Send(a, b, Message{MsgID: 7, Payload: fifoPayload{N: 3}})
	tr.Send(a, b, Message{Payload: hb{}})
	waitFor(t, 5*time.Second, func() bool { return s.len() >= 1 }, "beacon delivery")
	time.Sleep(20 * time.Millisecond) // give the protocol frame time to (not) arrive
	if s.len() != 1 {
		t.Fatalf("delivered %d datagrams, want only the beacon", s.len())
	}
	if _, ok := s.msg(0).Payload.(hb); !ok {
		t.Errorf("payload = %#v, want hb{}", s.msg(0).Payload)
	}
	s.mu.Lock()
	from := s.from[0]
	s.mu.Unlock()
	if from != a {
		t.Errorf("from = %v, want %v", from, a)
	}
}

// TestUDPNonBeaconDatagramCountsDecodeFailed: a decodable protocol frame
// arriving on the datagram plane bypasses the stream plane's per-channel
// sequence check, so the receiver counts it as DecodeFailed and
// drops it; a beacon on the same socket still arrives.
func TestUDPNonBeaconDatagramCountsDecodeFailed(t *testing.T) {
	tr := NewUDP()
	defer tr.Close()
	a, b := ids.Named("a"), ids.Named("b")
	var s sink
	if err := tr.Register(a, func(ids.ProcID, Message) {}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Register(b, s.handler); err != nil {
		t.Fatal(err)
	}
	tr.Send(a, b, Message{MsgID: 7, Payload: core.OK{Ver: 3}})
	waitFor(t, 5*time.Second, func() bool { return tr.Stats().DecodeFailed >= 1 }, "decode-failed count")
	tr.Send(a, b, Message{Payload: hb{}})
	waitFor(t, 5*time.Second, func() bool { return s.len() >= 1 }, "beacon after the refused frame")
	if s.len() != 1 {
		t.Fatalf("delivered %d datagrams, want only the beacon", s.len())
	}
	if _, ok := s.msg(0).Payload.(hb); !ok {
		t.Errorf("payload = %#v, want hb{}", s.msg(0).Payload)
	}
	if got := tr.Stats().DecodeFailed; got != 1 {
		t.Errorf("DecodeFailed = %d, want 1", got)
	}
}

// TestUDPBeaconFastPath: beacons ride the cached-encoding path and still
// arrive as the canonical payload value.
func TestUDPBeaconFastPath(t *testing.T) {
	tr := NewUDP()
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
		tr.Send(a, b, Message{Payload: hb{}})
		time.Sleep(time.Millisecond)
	}
	waitFor(t, 5*time.Second, func() bool { return s.len() >= 1 }, "beacon delivery")
	if _, ok := s.msg(0).Payload.(hb); !ok {
		t.Errorf("payload = %#v, want hb{}", s.msg(0).Payload)
	}
}

// TestUDPSelfSendDeliversDirectly: a self-send never touches the socket.
func TestUDPSelfSendDeliversDirectly(t *testing.T) {
	tr := NewUDP()
	defer tr.Close()
	a := ids.Named("a")
	var s sink
	if err := tr.Register(a, s.handler); err != nil {
		t.Fatal(err)
	}
	tr.Send(a, a, Message{MsgID: 1, Payload: fifoPayload{N: 1}})
	if s.len() != 1 {
		t.Fatalf("self-send delivered %d messages, want 1 (synchronously)", s.len())
	}
}

// TestUDPStatsCountUnknownPeer: a send with no known destination address
// is dropped and counted.
func TestUDPStatsCountUnknownPeer(t *testing.T) {
	tr := NewUDP()
	defer tr.Close()
	a := ids.Named("a")
	if err := tr.Register(a, func(ids.ProcID, Message) {}); err != nil {
		t.Fatal(err)
	}
	tr.Send(a, ids.Named("ghost"), Message{MsgID: 1, Payload: fifoPayload{}})
	if got := tr.Stats().UnknownPeer; got != 1 {
		t.Errorf("UnknownPeer = %d, want 1", got)
	}
}

// TestUDPOversizeSendCountsTruncated: an encoding past the datagram
// ceiling is dropped where it stands, counted as Truncated — it would
// be cut short (or rejected) by the kernel anyway.
func TestUDPOversizeSendCountsTruncated(t *testing.T) {
	tr := NewUDP()
	defer tr.Close()
	a, b := ids.Named("a"), ids.Named("b")
	var s sink
	if err := tr.Register(a, func(ids.ProcID, Message) {}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Register(b, s.handler); err != nil {
		t.Fatal(err)
	}
	tr.Send(a, b, Message{MsgID: 1, Payload: textPayload{S: strings.Repeat("x", maxDatagram+1)}})
	if got := tr.Stats().Truncated; got != 1 {
		t.Errorf("Truncated = %d, want 1", got)
	}
	if s.len() != 0 {
		t.Errorf("oversize datagram was delivered")
	}
}

// textPayload is as large on the wire as its string.
type textPayload struct{ S string }

func init() {
	RegisterBinaryPayload(kindTestText, textPayload{},
		func(e *Encoder, v any) { e.String(v.(textPayload).S) },
		func(d *Decoder) any { return textPayload{S: d.String()} })
}

// TestUDPMisaddressedDatagramDropped is the port-reuse hazard on the
// datagram plane: a frame landing on b's socket but addressed to some
// other process must be dropped, not delivered to b.
func TestUDPMisaddressedDatagramDropped(t *testing.T) {
	tr := NewUDP()
	defer tr.Close()
	a, b, c := ids.Named("a"), ids.Named("b"), ids.Named("c")
	var s sink
	if err := tr.Register(a, func(ids.ProcID, Message) {}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Register(b, s.handler); err != nil {
		t.Fatal(err)
	}
	// Point c's address at b's socket — the shape of the OS recycling a
	// dead process's port.
	addr, ok := tr.Addr(b)
	if !ok {
		t.Fatal("no address for b")
	}
	if err := tr.AddPeer(c, addr); err != nil {
		t.Fatal(err)
	}
	tr.Send(a, c, Message{Payload: hb{}})
	tr.Send(a, b, Message{Payload: hb{}}) // control frame
	waitFor(t, 5*time.Second, func() bool { return s.len() >= 1 }, "control frame")
	time.Sleep(20 * time.Millisecond) // give the misaddressed frame time to (not) arrive
	if s.len() != 1 {
		t.Fatalf("misaddressed datagram reached b's handler: %d messages, want only the control frame", s.len())
	}
}

// TestUDPGarbageDatagramCountsDecodeFailed: bytes that do not parse are
// dropped and counted; the socket keeps reading — unlike a corrupt
// stream, the next datagram is independent.
func TestUDPGarbageDatagramCountsDecodeFailed(t *testing.T) {
	tr := NewUDP()
	defer tr.Close()
	a, b := ids.Named("a"), ids.Named("b")
	var s sink
	if err := tr.Register(a, func(ids.ProcID, Message) {}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Register(b, s.handler); err != nil {
		t.Fatal(err)
	}
	addr, _ := tr.Addr(b)
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{0xfe, 0xba, 0xad}); err != nil { // unknown kind, garbage tail
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return tr.Stats().DecodeFailed >= 1 }, "decode-failed count")
	tr.Send(a, b, Message{Payload: hb{}}) // socket must still be alive
	waitFor(t, 5*time.Second, func() bool { return s.len() >= 1 }, "delivery after garbage")
}

// TestUDPUnregisterSilencesEndpoint: after Unregister, datagrams to the
// old address vanish like sends to a dead host.
func TestUDPUnregisterSilencesEndpoint(t *testing.T) {
	tr := NewUDP()
	defer tr.Close()
	a, b := ids.Named("a"), ids.Named("b")
	var s sink
	if err := tr.Register(a, func(ids.ProcID, Message) {}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Register(b, s.handler); err != nil {
		t.Fatal(err)
	}
	tr.Send(a, b, Message{Payload: hb{}})
	waitFor(t, 5*time.Second, func() bool { return s.len() >= 1 }, "pre-unregister delivery")
	tr.Unregister(b)
	tr.Send(a, b, Message{Payload: hb{}})
	time.Sleep(20 * time.Millisecond)
	if s.len() != 1 {
		t.Errorf("delivery after Unregister: %d messages", s.len())
	}
}

// --- TwoPlane ----------------------------------------------------------------

// planeCounter wraps a Transport and counts Sends, so a test can see
// which plane TwoPlane routed a frame to.
type planeCounter struct {
	Transport
	sends int64
	mu    sync.Mutex
}

func (p *planeCounter) Send(from, to ids.ProcID, m Message) {
	p.mu.Lock()
	p.sends++
	p.mu.Unlock()
	p.Transport.Send(from, to, m)
}

func (p *planeCounter) count() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sends
}

// TestTwoPlaneRoutesByTrafficClass: pure beacons take the beacon plane;
// protocol frames, gob payloads, and beacon payloads with a MsgID take
// the stream plane.
func TestTwoPlaneRoutesByTrafficClass(t *testing.T) {
	stream := &planeCounter{Transport: NewInmem()}
	beacon := &planeCounter{Transport: NewInmem()}
	tp := NewTwoPlane(stream, beacon)
	defer tp.Close()
	a, b := ids.Named("a"), ids.Named("b")
	var s sink
	if err := tp.Register(a, func(ids.ProcID, Message) {}); err != nil {
		t.Fatal(err)
	}
	if err := tp.Register(b, s.handler); err != nil {
		t.Fatal(err)
	}
	tp.Send(a, b, Message{Payload: hb{}})                    // pure beacon → beacon plane
	tp.Send(a, b, Message{MsgID: 1, Payload: hb{}})          // recorded send → stream plane
	tp.Send(a, b, Message{MsgID: 2, Payload: fifoPayload{}}) // protocol traffic → stream plane
	if got := beacon.count(); got != 1 {
		t.Errorf("beacon plane carried %d frames, want 1", got)
	}
	if got := stream.count(); got != 2 {
		t.Errorf("stream plane carried %d frames, want 2", got)
	}
	if s.len() != 3 {
		t.Errorf("delivered %d frames, want 3", s.len())
	}
}

// TestTwoPlaneStatsMerge: both planes' drop counters surface in one
// Stats value.
func TestTwoPlaneStatsMerge(t *testing.T) {
	stream, beacon := NewInmem(), NewInmem()
	tp := NewTwoPlane(stream, beacon)
	defer tp.Close()
	a := ids.Named("a")
	if err := tp.Register(a, func(ids.ProcID, Message) {}); err != nil {
		t.Fatal(err)
	}
	ghost := ids.Named("ghost")
	tp.Send(a, ghost, Message{MsgID: 1, Payload: fifoPayload{}}) // stream-plane drop
	tp.Send(a, ghost, Message{Payload: hb{}})                    // beacon-plane drop
	if got := tp.Stats().UnknownPeer; got != 2 {
		t.Errorf("merged UnknownPeer = %d, want 2", got)
	}
}

// TestTwoPlaneRegisterIsAtomic: a Register that fails on the beacon
// plane must unwind the stream plane's registration too.
func TestTwoPlaneRegisterIsAtomic(t *testing.T) {
	stream, beacon := NewInmem(), NewInmem()
	a := ids.Named("a")
	// Pre-claim a on the beacon plane so TwoPlane's Register collides.
	if err := beacon.Register(a, func(ids.ProcID, Message) {}); err != nil {
		t.Fatal(err)
	}
	tp := NewTwoPlane(stream, beacon)
	defer tp.Close()
	if err := tp.Register(a, func(ids.ProcID, Message) {}); err == nil {
		t.Fatal("Register succeeded despite beacon-plane collision")
	}
	// The stream plane must have been unwound: a fresh Register works.
	beacon.Unregister(a)
	if err := tp.Register(a, func(ids.ProcID, Message) {}); err != nil {
		t.Fatalf("re-Register after unwind: %v", err)
	}
}

// --- Chaos over the datagram plane -------------------------------------------

// TestChaosOverUDPLoss: a fully lossy chaos wrapper over the UDP plane
// consumes every frame and counts it as injected.
func TestChaosOverUDPLoss(t *testing.T) {
	ch := NewChaos(NewUDP(), ChaosOptions{Default: ChaosLink{Loss: 1}})
	defer ch.Close()
	a, b := ids.Named("a"), ids.Named("b")
	var s sink
	if err := ch.Register(a, func(ids.ProcID, Message) {}); err != nil {
		t.Fatal(err)
	}
	if err := ch.Register(b, s.handler); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		ch.Send(a, b, Message{Payload: hb{}})
	}
	if got := ch.Stats().ChaosInjected; got != 10 {
		t.Errorf("ChaosInjected = %d, want 10", got)
	}
	if s.len() != 0 {
		t.Errorf("%d frames survived a Loss=1 link", s.len())
	}
}

// TestChaosOverUDPDelay: chaos delay stretches the datagram plane
// without losing frames.
func TestChaosOverUDPDelay(t *testing.T) {
	const delay = 30 * time.Millisecond
	ch := NewChaos(NewUDP(), ChaosOptions{Default: ChaosLink{Delay: delay}})
	defer ch.Close()
	a, b := ids.Named("a"), ids.Named("b")
	var s sink
	if err := ch.Register(a, func(ids.ProcID, Message) {}); err != nil {
		t.Fatal(err)
	}
	if err := ch.Register(b, s.handler); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	ch.Send(a, b, Message{Payload: hb{}})
	waitFor(t, 5*time.Second, func() bool { return s.len() >= 1 }, "delayed beacon")
	if took := time.Since(start); took < delay {
		t.Errorf("beacon arrived after %v, want ≥ %v", took, delay)
	}
}

// TestChaosOverUDPPartition: a partitioned link drops beacons until
// healed — the knob the saturation experiment's chaos arms turn.
func TestChaosOverUDPPartition(t *testing.T) {
	ch := NewChaos(NewUDP(), ChaosOptions{})
	defer ch.Close()
	a, b := ids.Named("a"), ids.Named("b")
	var s sink
	if err := ch.Register(a, func(ids.ProcID, Message) {}); err != nil {
		t.Fatal(err)
	}
	if err := ch.Register(b, s.handler); err != nil {
		t.Fatal(err)
	}
	ch.Partition(a, b)
	ch.Send(a, b, Message{Payload: hb{}})
	if got := ch.Stats().ChaosInjected; got != 1 {
		t.Errorf("partitioned send: ChaosInjected = %d, want 1", got)
	}
	ch.Heal(a, b)
	ch.Send(a, b, Message{Payload: hb{}})
	waitFor(t, 5*time.Second, func() bool { return s.len() >= 1 }, "post-heal beacon")
}
