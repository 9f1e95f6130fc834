package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"procgroup/internal/ids"
)

// TCP is the socket transport: every registered process owns a listener,
// and every directed channel p→q that carries traffic is one connection —
// the paper's §2.1 reliable FIFO channel made literal, n(n−1) sockets for
// a fully-connected n-process group. p's side dials the link and only
// ever writes on it: one writer goroutine drains the channel's FIFO queue
// into vectored batches, stamping each frame with the channel's next
// sequence number. q's listener accepts the link and only ever reads from
// it, delivering a frame only if it advances that sequence. With one
// writer per socket there is nothing to tie-break: two processes that
// open channels to each other at once simply get two connections. The
// stream carries sequenced frames only: beacons ride TwoPlane's datagram
// plane.
//
// Peers register locally (loopback clusters) or are introduced with
// AddPeer (cross-host deployments). Sends to a peer that is unknown,
// unreachable, or whose channel queue is saturated are dropped — the
// failure detector owns liveness, the transport only moves bytes — and
// every drop is counted by reason (Stats). What the kernel says about a
// peer for free is passed on as closed-stream evidence (PeerClosed): a
// channel stream that ends without this side closing it (EOF or a failed
// write), a refused dial, and — the same-host model of the kernel closing
// a dead process's sockets — Unregister(p) stopping a channel to p whose
// sender is still registered here.
type TCP struct {
	host string

	mu     sync.RWMutex
	addrs  map[ids.ProcID]string
	locals map[ids.ProcID]*tcpEndpoint
	links  map[chanKey]*link
	closed bool
	wg     sync.WaitGroup
	stats  statCounters

	// linksSnap is a copy-on-write snapshot of links, republished on
	// every (rare) mutation, so the Send fast path resolves its link with
	// one atomic load instead of an RWMutex round trip per frame.
	linksSnap atomic.Pointer[map[chanKey]*link]
}

// chanKey names one directed channel.
type chanKey struct{ from, to ids.ProcID }

// tcpEndpoint is one registered process's accepting side.
type tcpEndpoint struct {
	self ids.ProcID
	name string // self.String(), what an addressed frame's To must equal
	ln   net.Listener
	h    Handler

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	done  bool
}

// tcpQueueDepth bounds a channel's outbound queue. Protocol traffic is a
// handful of messages per view change; hitting this depth means the peer
// is unreachable and the frames would be dropped at dial time anyway.
// (A var, not a const, so saturation tests can lower it.)
var tcpQueueDepth = 1024

// NewTCP builds a TCP transport whose listeners bind loopback.
func NewTCP() *TCP { return NewTCPHost("127.0.0.1") }

// NewTCPHost builds a TCP transport binding listeners on host.
func NewTCPHost(host string) *TCP {
	return &TCP{
		host:   host,
		addrs:  make(map[ids.ProcID]string),
		locals: make(map[ids.ProcID]*tcpEndpoint),
		links:  make(map[chanKey]*link),
	}
}

// AddPeer introduces a remote process reachable at addr, for deployments
// where the group spans OS processes or hosts.
func (t *TCP) AddPeer(p ids.ProcID, addr string) {
	t.mu.Lock()
	t.addrs[p] = addr
	t.mu.Unlock()
}

// Addr reports the listen address of a registered process, for handing to
// AddPeer on other transports.
func (t *TCP) Addr(p ids.ProcID) (string, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	a, ok := t.addrs[p]
	return a, ok
}

// Stats implements Transport. ConnsOpen reports the channel links this
// instance has dialed and currently holds established — the lazily-dialed
// connection footprint a monitoring topology actually produces. Only the
// dialing side counts a link, so summing ConnsOpen over every instance of
// a group counts each connection once.
func (t *TCP) Stats() Stats {
	s := t.stats.snapshot()
	t.mu.RLock()
	links := make([]*link, 0, len(t.links))
	for _, l := range t.links {
		links = append(links, l)
	}
	t.mu.RUnlock()
	for _, l := range links {
		l.mu.Lock()
		if l.conn != nil {
			s.ConnsOpen++
		}
		s.SendQueueNow += int64(len(l.frames) - l.head)
		l.mu.Unlock()
	}
	return s
}

// Register implements Transport: it opens p's listener and starts its
// accept loop.
func (t *TCP) Register(p ids.ProcID, h Handler) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return fmt.Errorf("transport: tcp is closed")
	}
	if _, dup := t.locals[p]; dup {
		return fmt.Errorf("transport: %v already registered", p)
	}
	ln, err := net.Listen("tcp", net.JoinHostPort(t.host, "0"))
	if err != nil {
		return fmt.Errorf("transport: listen for %v: %w", p, err)
	}
	ep := &tcpEndpoint{self: p, name: p.String(), ln: ln, h: h, conns: make(map[net.Conn]struct{})}
	t.locals[p] = ep
	t.addrs[p] = ln.Addr().String()
	t.wg.Add(1)
	go t.accept(ep)
	return nil
}

// Unregister implements Transport: p's listener, its accepted connections,
// and every link from or to p close, so peers sending to it fail and
// drop, like a dead host. Channels between other processes are untouched.
// Stopping the links reports nothing; each sender to p registered here is
// then told once, and the receivers of p's links see their streams end.
func (t *TCP) Unregister(p ids.ProcID) {
	t.mu.Lock()
	ep, ok := t.locals[p]
	if ok {
		delete(t.locals, p)
	}
	// The stale address stays in addrs: dials to it now fail, which is
	// exactly the dead-host behavior senders must see.
	var drop []*link
	for k, l := range t.links {
		if k.from == p || k.to == p {
			drop = append(drop, l)
			delete(t.links, k)
		}
	}
	if len(drop) > 0 {
		t.republishLinksLocked()
	}
	t.mu.Unlock()
	for _, l := range drop {
		l.stop()
		if l.to == p {
			t.noteClosed(p, l.from)
		}
	}
	if ok {
		ep.shutdown()
	}
}

// noteClosed delivers closed-stream evidence about p to q, if q is
// registered here. It runs only when a stream ends or a dial fails,
// never per frame.
func (t *TCP) noteClosed(p, q ids.ProcID) {
	t.mu.RLock()
	ep := t.locals[q]
	t.mu.RUnlock()
	if ep != nil {
		ep.h(p, Message{Payload: PeerClosed{}})
	}
}

// Send implements Transport.
func (t *TCP) Send(from, to ids.ProcID, m Message) {
	t.stats.noteSend(m.Payload)
	if from == to {
		// Self-sends never touch a socket (there is no p→p link);
		// deliver directly, matching Inmem's contract.
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
	k := chanKey{from, to}
	// Fast path: resolve the link from the lock-free snapshot. enqueue
	// reports false only for a link stopped since the snapshot — fall
	// through and let the locked path sort out why.
	if snap := t.linksSnap.Load(); snap != nil {
		if l := (*snap)[k]; l != nil && l.enqueue(m) {
			return
		}
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		t.stats.closed.Add(1)
		return
	}
	l := t.links[k]
	if l == nil {
		l = t.newLinkLocked(k)
	}
	t.mu.Unlock()
	if !l.enqueue(m) {
		t.stats.closed.Add(1)
	}
}

// newLinkLocked creates the link for channel k and starts its writer;
// t.mu must be held.
func (t *TCP) newLinkLocked(k chanKey) *link {
	l := &link{
		t:    t,
		from: k.from, to: k.to,
		fromName: k.from.String(), toName: k.to.String(),
		wake: make(chan struct{}, 1),
		quit: make(chan struct{}),
	}
	t.links[k] = l
	t.republishLinksLocked()
	t.wg.Add(1)
	go l.run()
	return l
}

// republishLinksLocked refreshes the lock-free links snapshot; t.mu must
// be held. Link churn is rare (creation, unregister, close), so the copy
// cost never rides the send path.
func (t *TCP) republishLinksLocked() {
	snap := make(map[chanKey]*link, len(t.links))
	for k, l := range t.links {
		snap[k] = l
	}
	t.linksSnap.Store(&snap)
}

// Close implements Transport.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	eps := make([]*tcpEndpoint, 0, len(t.locals))
	for _, ep := range t.locals {
		eps = append(eps, ep)
	}
	t.locals = make(map[ids.ProcID]*tcpEndpoint)
	links := make([]*link, 0, len(t.links))
	for _, l := range t.links {
		links = append(links, l)
	}
	t.links = make(map[chanKey]*link)
	t.republishLinksLocked()
	t.mu.Unlock()
	for _, l := range links {
		l.stop()
	}
	for _, ep := range eps {
		ep.shutdown()
	}
	t.wg.Wait()
	return nil
}

// accept runs one endpoint's accept loop.
func (t *TCP) accept(ep *tcpEndpoint) {
	defer t.wg.Done()
	for {
		c, err := ep.ln.Accept()
		if err != nil {
			return // listener closed by shutdown
		}
		if !ep.track(c) {
			c.Close()
			return
		}
		t.wg.Add(1)
		go t.readConn(c, ep)
	}
}

// readConn drains one accepted channel stream, decoding each frame on
// this goroutine and handing it to ep's process. The stream is buffered,
// so a frame costs amortized fractions of a read syscall rather than two.
//
// An accepted stream carries one channel into ep's process. The first
// frame addressed to ep with a sequence above 0 fixes the stream's
// sender; a later frame is delivered only if it comes from that sender,
// is addressed to ep, and advances the channel's sequence. Anything else
// is dropped, not misdelivered: a frame for another process is the
// port-reuse hazard (after a process dies, the OS can hand its ephemeral
// port to a new listener while senders still dial the stale address),
// and an unsequenced, stale or replayed frame would break §2.1's FIFO
// contract, checked on the wire for the stream's lifetime. Across a
// reconnect the check starts fresh: the boundary keeps datagram semantics
// (a chunk retried on the replacement stream can duplicate frames of the
// dying stream's tail).
//
// A stream that ends under a registered ep — EOF or a read error, not a
// decode error — is closed-stream evidence about its sender.
func (t *TCP) readConn(c net.Conn, ep *tcpEndpoint) {
	defer t.wg.Done()
	fr := newFrameReader(bufio.NewReaderSize(c, 128<<10))
	var (
		fixed  bool // the sender is known
		sender string
		from   ids.ProcID
		floor  uint64
		ended  bool // the stream ended under us, not by a decode error
	)
	for {
		body, err := fr.readBody()
		if err != nil {
			ended = true // EOF on peer close, or framing corruption: abandon the stream
			break
		}
		fr.dec.reset(body)
		f, err := decodeFrame(&fr.dec)
		if err != nil {
			t.stats.drop(dropDecodeFailed)
			break
		}
		if f.To != ep.name || f.Seq <= floor {
			continue // misaddressed, unsequenced, stale or replayed: never reorder
		}
		if !fixed {
			p, err := ids.Parse(f.From)
			if err != nil {
				continue
			}
			fixed, sender, from = true, f.From, p
		} else if f.From != sender {
			continue // a second sender on one channel's stream
		}
		floor = f.Seq
		ep.h(from, Message{MsgID: f.MsgID, Payload: f.Body})
	}
	ep.untrack(c)
	if ended && fixed && t.hosts(ep) {
		ep.h(from, Message{Payload: PeerClosed{}})
	}
}

// hosts reports whether ep is still the registered endpoint of its
// process: a stream ended by the endpoint's own Unregister or Close is
// no news about the far end.
func (t *TCP) hosts(ep *tcpEndpoint) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.locals[ep.self] == ep
}

// --- link ----------------------------------------------------------------

// link is the sending side of one directed channel: its FIFO queue, its
// sequence counter, its dialed connection and the single writer goroutine
// that drains the queue onto it.
type link struct {
	t                *TCP
	from, to         ids.ProcID
	fromName, toName string // rendered once for every frame's From and To

	mu      sync.Mutex
	frames  []Frame // frames[head:] are queued, not yet written
	head    int
	seq     uint64   // last sequence stamped on this channel
	conn    net.Conn // established stream, dialed by the writer
	stopped bool

	wake chan struct{}
	quit chan struct{}
}

func (l *link) wakeWriter() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// enqueue appends one message to the channel's FIFO queue, stamped with
// the channel's next sequence, reporting false if the link has been
// stopped (the caller owns that accounting).
func (l *link) enqueue(msg Message) bool {
	l.mu.Lock()
	if l.stopped {
		l.mu.Unlock()
		return false
	}
	if len(l.frames)-l.head >= tcpQueueDepth {
		l.mu.Unlock()
		l.t.stats.queueSaturated.Add(1)
		return true
	}
	l.seq++
	l.frames = append(l.frames, Frame{From: l.fromName, To: l.toName, Seq: l.seq, MsgID: msg.MsgID, Body: msg.Payload})
	depth := len(l.frames) - l.head
	l.mu.Unlock()
	l.t.stats.queueDepth(int64(depth))
	l.wakeWriter()
	return true
}

// Batch limits for the link writer. A batch becomes one vectored write;
// the byte cap chunks a burst of large frames so the encode arena stays
// bounded no matter what rides the stream.
const (
	batchMaxFrames = 1024
	batchMaxBytes  = 256 << 10
)

// nextBatch moves up to the batch frame cap of queued frames into dst
// under ONE lock acquisition — under backlog the per-frame
// synchronization cost amortizes across the whole batch.
func (l *link) nextBatch(dst []Frame) []Frame {
	l.mu.Lock()
	defer l.mu.Unlock()
	end := min(len(l.frames), l.head+batchMaxFrames)
	dst = append(dst, l.frames[l.head:end]...)
	clear(l.frames[l.head:end])
	l.head = end
	if l.head == len(l.frames) {
		l.frames, l.head = l.frames[:0], 0
	}
	return dst
}

// run is the link's writer goroutine: it pops a batch of ready frames,
// encodes them back-to-back into a reusable arena, and hands the result
// to the kernel as one vectored write — syscalls and queue locks cost
// per batch, not per frame.
func (l *link) run() {
	defer l.t.wg.Done()
	w := linkWriter{l: l}
	var batch []Frame
	for {
		batch = l.nextBatch(batch[:0])
		if len(batch) == 0 {
			select {
			case <-l.quit:
				return
			case <-l.wake:
				continue
			}
		}
		w.writeBatch(batch)
	}
}

// linkWriter owns one writer goroutine's scratch state: the encode arena
// and the vectored-write buffer list.
type linkWriter struct {
	l     *link
	arena []byte
	bufs  net.Buffers
	vec   net.Buffers // scratch header consumed by WriteTo
}

// writeBatch encodes the batch into the arena and writes it out in
// chunks of at most batchMaxBytes, each chunk one vectored write. A
// failed chunk retries in full on a fresh connection; frames it
// duplicates across the boundary are the datagram semantics readConn
// describes. Once a chunk is lost the rest of the batch is dropped too:
// the link stayed down through the whole retry budget, and redialing per
// chunk would only stall the queue further.
func (w *linkWriter) writeBatch(batch []Frame) {
	a := w.arena[:0]
	chunk := 0 // frames encoded into a and not yet written
	for i := range batch {
		var err error
		a, err = appendPrefixed(a, batch[i])
		if err != nil {
			w.l.t.stats.drop(dropWriteFailed) // unencodable frame: skip it, keep the batch
			continue
		}
		chunk++
		if len(a) >= batchMaxBytes {
			if ok, why := w.flush(a, chunk); !ok {
				w.l.t.stats.dropN(why, int64(len(batch)-i-1))
				w.reclaim(a)
				return
			}
			a, chunk = a[:0], 0
		}
	}
	w.flush(a, chunk) // the batch ends here: nothing left to count on failure
	w.reclaim(a)
}

// flushAttempts bounds flush's redial-and-rewrite loop.
// Protocol frames ride the stream plane on the paper's reliable-FIFO
// contract (§2.1) and nothing above the transport retransmits, so a
// transiently unreachable peer (an accept loop starved on a loaded host,
// a stream reset under the writer) must be retried here, with backoff,
// rather than silently dropped. The bound keeps a writer from spinning on
// a genuinely dead peer — only this channel's queue stalls meanwhile, and
// a dead peer has nothing else to say on it. (A crashed peer refuses
// instantly, so the dead-host cost is the backoff sleeps, not the dial
// timeouts; the budget is sized for a host descheduled for whole seconds,
// as happens with hundreds of member processes per core in the E19
// harness.)
const flushAttempts = 8

// flushBackoffCap caps the linear per-attempt backoff.
const flushBackoffCap = 500 * time.Millisecond

// flush writes a as one vectored write, redialing with backoff on
// failure; the chunk's frames are accounted as drops only once the link
// stays unestablishable through every attempt.
func (w *linkWriter) flush(a []byte, frames int) (bool, dropReason) {
	if frames == 0 {
		return true, dropNone
	}
	why := dropWriteFailed
	for attempt := 0; attempt < flushAttempts; attempt++ {
		if attempt > 0 {
			backoff := min(time.Duration(attempt)*100*time.Millisecond, flushBackoffCap)
			select {
			case <-w.l.quit:
				w.l.t.stats.dropN(dropClosed, int64(frames))
				return false, dropClosed
			case <-time.After(backoff):
			}
		}
		c, dialWhy := w.l.ensureConn()
		if c == nil {
			why = dialWhy
			if why != dropDialFailed {
				// Stopped link or unknown peer: no later attempt can do
				// better, so don't stall the queue behind a lost cause.
				w.l.t.stats.dropN(why, int64(frames))
				return false, why
			}
			continue
		}
		// WriteTo consumes the Buffers header it is given, so hand it a
		// scratch copy of the header (a field, not a local: a local would
		// escape per call); w.bufs keeps its capacity across batches.
		w.bufs = append(w.bufs[:0], a)
		w.vec = w.bufs
		if _, err := w.vec.WriteTo(c); err == nil {
			return true, dropNone
		}
		why = dropWriteFailed
		w.l.connLost(c)
	}
	w.l.t.stats.dropN(why, int64(frames))
	return false, why
}

// reclaim keeps the arena for the next batch unless a burst of large
// frames ballooned it past any steady-state need.
func (w *linkWriter) reclaim(a []byte) {
	if cap(a) > batchMaxBytes+maxFrame {
		a = nil
	}
	w.arena = a[:0:cap(a)]
}

// appendPrefixed appends f's length-prefixed wire encoding to a.
func appendPrefixed(a []byte, f Frame) ([]byte, error) {
	start := len(a)
	b, err := AppendFrame(append(a, 0, 0, 0, 0), f)
	if err != nil {
		return a[:start], err
	}
	body := len(b) - start - 4
	if body > maxFrame {
		return b[:start], fmt.Errorf("transport: frame of %d bytes exceeds limit", body)
	}
	binary.BigEndian.PutUint32(b[start:start+4], uint32(body))
	return b, nil
}

// ensureConn returns the link's connection, dialing if none is
// established. Only the writer goroutine calls it, so at most one dial is
// ever out per link.
func (l *link) ensureConn() (net.Conn, dropReason) {
	l.mu.Lock()
	c, stopped := l.conn, l.stopped
	l.mu.Unlock()
	switch {
	case stopped:
		return nil, dropClosed
	case c != nil:
		return c, dropNone
	}
	t := l.t
	t.mu.RLock()
	addr, ok := t.addrs[l.to]
	t.mu.RUnlock()
	if !ok {
		return nil, dropUnknownPeer
	}
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		if errors.Is(err, syscall.ECONNREFUSED) {
			t.noteClosed(l.to, l.from) // nothing listens at the peer's address
		}
		return nil, dropDialFailed
	}
	l.mu.Lock()
	if l.stopped {
		l.mu.Unlock()
		c.Close()
		return nil, dropClosed
	}
	l.conn = c
	l.mu.Unlock()
	t.wg.Add(1)
	go l.watch(c)
	return c, dropNone
}

// watch blocks in Read on a dialed stream. The far end never writes on
// it, so the read returns only when the stream ends — the moment a peer's
// kernel closes a dead process's sockets, long before the next write
// would fail.
func (l *link) watch(c net.Conn) {
	defer l.t.wg.Done()
	var buf [64]byte
	for {
		if _, err := c.Read(buf[:]); err != nil {
			break
		}
	}
	l.connLost(c)
}

// connLost closes c, a stream that ended without this side closing it —
// EOF or a failed write. If c was still the link's established stream,
// the writer redials on the next frame and the sender, if registered
// here, gets closed-stream evidence about the receiver. A stream stop
// already detached, or one the writer and watch both saw end, is
// reported at most once.
func (l *link) connLost(c net.Conn) {
	l.mu.Lock()
	established := l.conn == c
	if established {
		l.conn = nil
	}
	l.mu.Unlock()
	c.Close()
	if established {
		l.t.noteClosed(l.to, l.from)
	}
}

// stop tears the link down: queued frames are discarded, the stream
// closes without a report, and the writer exits.
func (l *link) stop() {
	l.mu.Lock()
	if l.stopped {
		l.mu.Unlock()
		return
	}
	l.stopped = true
	c := l.conn
	l.conn = nil
	l.frames, l.head = nil, 0
	l.mu.Unlock()
	if c != nil {
		c.Close()
	}
	close(l.quit)
}

// --- tcpEndpoint -------------------------------------------------------------

func (ep *tcpEndpoint) track(c net.Conn) bool {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.done {
		return false
	}
	ep.conns[c] = struct{}{}
	return true
}

func (ep *tcpEndpoint) untrack(c net.Conn) {
	ep.mu.Lock()
	delete(ep.conns, c)
	ep.mu.Unlock()
	c.Close()
}

func (ep *tcpEndpoint) shutdown() {
	ep.mu.Lock()
	ep.done = true
	conns := make([]net.Conn, 0, len(ep.conns))
	for c := range ep.conns {
		conns = append(conns, c)
	}
	ep.conns = make(map[net.Conn]struct{})
	ep.mu.Unlock()
	ep.ln.Close()
	for _, c := range conns {
		c.Close()
	}
}
