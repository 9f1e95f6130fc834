package transport

import (
	"fmt"
	"net"
	"sync"

	"procgroup/internal/ids"
)

// UDP is the datagram plane: every registered process owns one UDP
// socket, a send is one sendto, and a frame is one datagram — no
// connections, no queues, no backpressure. A send either reaches the
// wire immediately or is dropped and counted; nothing a slow or dead
// peer does can delay a frame behind it. That makes the plane exactly
// wrong for protocol traffic (which needs the reliable-FIFO channels of
// §2.1) and exactly right for beacons: a heartbeat's value is its
// arrival TIME, a lost one costs a fraction of a detector sample, but a
// queued one poisons the inter-arrival fit with delay the peer never
// exhibited. TwoPlane composes this plane under a stream plane so each
// traffic class gets the semantics it needs, and the receive side holds
// it to that: a datagram carrying anything but a beacon is dropped.
//
// Frames travel as bare codec bodies (no length prefix — the datagram
// boundary frames them) with Seq always 0: there is no sequence and no
// ordering check. Per-channel FIFO is therefore only as good as the
// network's reordering behavior; on loopback and within one L2 segment
// that is in-order in practice, and beacons are order-free anyway.
type UDP struct {
	host string

	mu     sync.RWMutex
	addrs  map[ids.ProcID]*net.UDPAddr
	locals map[ids.ProcID]*udpEndpoint
	egress *net.UDPConn // lazy shared socket for sends from unregistered ids
	closed bool
	wg     sync.WaitGroup
	stats  statCounters

	// beacons caches the encoded bytes of each (channel, kind) beacon —
	// identical every time (no MsgID, no Seq), so the steady-state
	// beacon send allocates nothing. Bounded by channels × beacon kinds.
	beaconMu sync.RWMutex
	beacons  map[beaconKey][]byte
}

// udpEndpoint is one registered process's socket and handler.
type udpEndpoint struct {
	conn *net.UDPConn
	h    Handler
}

// maxDatagram bounds an encoded frame on the datagram plane, under the
// 65,507-byte UDP payload ceiling with headroom. Beacons are tens of
// bytes; anything near this limit belongs on the stream plane.
const maxDatagram = 60 << 10

// NewUDP builds a UDP transport whose sockets bind loopback.
func NewUDP() *UDP { return NewUDPHost("127.0.0.1") }

// NewUDPHost builds a UDP transport binding sockets on host.
func NewUDPHost(host string) *UDP {
	return &UDP{
		host:    host,
		addrs:   make(map[ids.ProcID]*net.UDPAddr),
		locals:  make(map[ids.ProcID]*udpEndpoint),
		beacons: make(map[beaconKey][]byte),
	}
}

// AddPeer introduces a remote process reachable at addr, for deployments
// where the group spans OS processes or hosts.
func (t *UDP) AddPeer(p ids.ProcID, addr string) error {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return fmt.Errorf("transport: udp peer %v: %w", p, err)
	}
	t.mu.Lock()
	t.addrs[p] = ua
	t.mu.Unlock()
	return nil
}

// Addr reports the socket address of a registered process, for handing
// to AddPeer on other transports.
func (t *UDP) Addr(p ids.ProcID) (string, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	a, ok := t.addrs[p]
	if !ok {
		return "", false
	}
	return a.String(), true
}

// Register implements Transport: it opens p's socket and starts its read
// loop.
func (t *UDP) Register(p ids.ProcID, h Handler) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return fmt.Errorf("transport: udp is closed")
	}
	if _, dup := t.locals[p]; dup {
		return fmt.Errorf("transport: %v already registered", p)
	}
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.ParseIP(t.host)})
	if err != nil {
		return fmt.Errorf("transport: udp socket for %v: %w", p, err)
	}
	ep := &udpEndpoint{conn: conn, h: h}
	t.locals[p] = ep
	t.addrs[p] = conn.LocalAddr().(*net.UDPAddr)
	t.wg.Add(1)
	go t.readLoop(ep)
	return nil
}

// Unregister implements Transport: p's socket closes, so datagrams sent
// to it vanish into a closed port — the dead-host behavior. The stale
// address stays in addrs on purpose.
func (t *UDP) Unregister(p ids.ProcID) {
	t.mu.Lock()
	ep, ok := t.locals[p]
	if ok {
		delete(t.locals, p)
	}
	t.mu.Unlock()
	if ok {
		ep.conn.Close()
	}
}

// Send implements Transport: encode, one sendto, done. Every failure
// drops the frame where it stands and counts the reason; nothing ever
// queues.
func (t *UDP) Send(from, to ids.ProcID, m Message) {
	t.stats.noteSend(m.Payload)
	if from == to {
		// Self-sends never touch the socket, matching Inmem's contract.
		t.mu.RLock()
		closed := t.closed
		ep := t.locals[to]
		t.mu.RUnlock()
		switch {
		case closed:
			t.stats.drop(dropClosed)
		case ep == nil:
			t.stats.drop(dropUnknownPeer)
		default:
			ep.h(from, m)
		}
		return
	}
	t.mu.RLock()
	closed := t.closed
	dst := t.addrs[to]
	src := t.locals[from]
	t.mu.RUnlock()
	if closed {
		t.stats.drop(dropClosed)
		return
	}
	if dst == nil {
		t.stats.drop(dropUnknownPeer)
		return
	}

	// Beacons send from a per-(channel, kind) byte cache, so encoding a
	// steady-state beacon allocates nothing. Volatile beacons (digest contents change per send) must skip the
	// cache and take the ordinary encode path below.
	if c := binCodecFor(m.Payload); c != nil && c.beacon && !c.volatile && m.MsgID == 0 {
		b := t.beaconBytes(beaconKey{ch: chanKey{from, to}, kind: c.kind}, m)
		if b == nil {
			t.stats.drop(dropWriteFailed)
			return
		}
		t.write(src, b, dst)
		return
	}

	bp := encBufs.Get().(*[]byte)
	b, err := AppendFrame((*bp)[:0], Frame{From: from.String(), To: to.String(), MsgID: m.MsgID, Body: m.Payload})
	if err != nil {
		encBufs.Put(bp)
		t.stats.drop(dropWriteFailed)
		return
	}
	if len(b) > maxDatagram {
		*bp = b[:0]
		encBufs.Put(bp)
		t.stats.drop(dropTruncated)
		return
	}
	t.write(src, b, dst)
	*bp = b[:0]
	encBufs.Put(bp)
}

// beaconKey names one beacon type's traffic on one directed channel.
type beaconKey struct {
	ch   chanKey
	kind byte
}

// beaconBytes returns (building and caching on first use) the encoded
// datagram for one channel's beacon of one kind.
func (t *UDP) beaconBytes(k beaconKey, m Message) []byte {
	t.beaconMu.RLock()
	b, ok := t.beacons[k]
	t.beaconMu.RUnlock()
	if ok {
		return b
	}
	b, err := AppendFrame(nil, Frame{From: k.ch.from.String(), To: k.ch.to.String(), Body: m.Payload})
	if err != nil || len(b) > maxDatagram {
		return nil
	}
	t.beaconMu.Lock()
	if cached, ok := t.beacons[k]; ok {
		b = cached
	} else {
		t.beacons[k] = b
	}
	t.beaconMu.Unlock()
	return b
}

// write performs the sendto: from the sender's own socket when it is
// registered here (stable source address), else from a lazily-opened
// shared egress socket.
func (t *UDP) write(src *udpEndpoint, b []byte, dst *net.UDPAddr) {
	conn := t.egressConn(src)
	if conn == nil {
		t.stats.drop(dropClosed)
		return
	}
	if _, err := conn.WriteToUDP(b, dst); err != nil {
		t.stats.drop(dropWriteFailed)
	}
}

func (t *UDP) egressConn(src *udpEndpoint) *net.UDPConn {
	if src != nil {
		return src.conn
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	if t.egress == nil {
		conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.ParseIP(t.host)})
		if err != nil {
			return nil
		}
		t.egress = conn
	}
	return t.egress
}

// readLoop drains one endpoint's socket. One datagram is one frame;
// undecodable bytes are dropped and counted, never fatal — unlike a
// corrupt stream there is no shared state to distrust, the next
// datagram is independent.
func (t *UDP) readLoop(ep *udpEndpoint) {
	defer t.wg.Done()
	// The buffer exceeds the maximum UDP payload, so the kernel never
	// truncates a read; Truncated counts only send-side oversize.
	buf := make([]byte, 64<<10)
	var d Decoder
	d.intern = make(map[string]string)
	for {
		n, err := ep.conn.Read(buf)
		if err != nil {
			return // socket closed by Unregister/Close
		}
		if n == 0 {
			t.stats.drop(dropDecodeFailed)
			continue
		}
		d.reset(buf[:n])
		f, err := decodeFrame(&d)
		if err != nil {
			t.stats.drop(dropDecodeFailed)
			continue
		}
		t.deliver(ep, f)
	}
}

// deliver routes one decoded datagram to the endpoint that received it.
// Only beacon-class frames are delivered: any other kind belongs on the
// stream plane, whose per-channel sequence check is what §2.1's FIFO
// rests on, so a protocol frame arriving as a datagram is counted as
// DecodeFailed and dropped. A frame addressed to some other process is
// dropped, not misdelivered — the port-reuse hazard: after a process
// dies, the OS can hand its port to a new socket while senders still
// target the stale address.
func (t *UDP) deliver(ep *udpEndpoint, f Frame) {
	m := Message{MsgID: f.MsgID, Payload: f.Body}
	if !isBeacon(m) {
		t.stats.drop(dropDecodeFailed)
		return
	}
	from, err := ids.Parse(f.From)
	if err != nil {
		t.stats.drop(dropDecodeFailed)
		return
	}
	to, err := ids.Parse(f.To)
	if err != nil {
		t.stats.drop(dropDecodeFailed)
		return
	}
	t.mu.RLock()
	local := t.locals[to]
	t.mu.RUnlock()
	if local != ep {
		return // misaddressed: stale port reuse or stray traffic
	}
	ep.h(from, m)
}

// Stats implements Transport. ConnsOpen stays 0: the plane is
// connectionless, which is the point.
func (t *UDP) Stats() Stats { return t.stats.snapshot() }

// Close implements Transport.
func (t *UDP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	eps := make([]*udpEndpoint, 0, len(t.locals))
	for _, ep := range t.locals {
		eps = append(eps, ep)
	}
	t.locals = make(map[ids.ProcID]*udpEndpoint)
	egress := t.egress
	t.egress = nil
	t.mu.Unlock()
	for _, ep := range eps {
		ep.conn.Close()
	}
	if egress != nil {
		egress.Close()
	}
	t.wg.Wait()
	return nil
}
