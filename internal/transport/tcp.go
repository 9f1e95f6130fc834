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
// and every unordered peer pair {p, q} shares ONE multiplexed connection
// carrying channel-tagged frames for both directions — n(n−1)/2 sockets
// for a fully-connected n-process group instead of the n(n−1) of the old
// one-socket-per-directed-channel design. The §2.1 per-channel FIFO
// property stays structural: TCP orders bytes within the stream, a single
// writer goroutine per pair drains the per-channel FIFO queues fairly
// (round-robin, in-queue order), and every frame carries a per-channel
// mux sequence number that the reader checks. The stream carries
// sequenced frames only: beacons ride TwoPlane's datagram plane.
//
// Peers register locally (loopback clusters) or are introduced with
// AddPeer (cross-host deployments). Sends to a peer that is unknown,
// unreachable, or whose channel queue is saturated are dropped — the
// failure detector owns liveness, the transport only moves bytes — and
// every drop is counted by reason (Stats). What the kernel says about a
// peer for free is passed on as closed-stream evidence (PeerClosed): an
// established pair stream that ends without this side closing it (EOF
// or a failed write), a refused dial, and — the same-host model of the
// kernel closing a dead process's sockets — Unregister(p) stopping a
// pair whose other end is still registered here.
type TCP struct {
	host string

	mu     sync.RWMutex
	addrs  map[ids.ProcID]string
	locals map[ids.ProcID]*tcpEndpoint
	pairs  map[pairKey]*pairMux
	closed bool
	wg     sync.WaitGroup
	stats  statCounters

	// localsGen counts mutations of locals; readers cache endpoint
	// lookups against it (routeState.endpoint).
	localsGen atomic.Uint64

	// pairsSnap is a copy-on-write snapshot of pairs, republished on
	// every (rare) mutation, so the Send fast path resolves its mux with
	// one atomic load instead of an RWMutex round trip per frame.
	pairsSnap atomic.Pointer[map[pairKey]*pairMux]
}

// chanKey names one directed channel.
type chanKey struct{ from, to ids.ProcID }

// pairKey names one unordered peer pair, canonically ordered (a ≤ b).
type pairKey struct{ a, b ids.ProcID }

func pairOf(p, q ids.ProcID) pairKey {
	if q.Less(p) {
		p, q = q, p
	}
	return pairKey{a: p, b: q}
}

// tcpEndpoint is one registered process's accepting side.
type tcpEndpoint struct {
	ln net.Listener
	h  Handler

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	done  bool
}

// tcpQueueDepth bounds a channel's outbound queue. Protocol traffic is a
// handful of messages per view change; hitting this depth means the peer
// is unreachable and the frames would be dropped at dial time anyway.
// (A var, not a const, so saturation tests can lower it.)
var tcpQueueDepth = 1024

// tcpPostDialHook, when non-nil (tests only), runs in ensureConn after
// the dial and hello succeed but before the pair state is re-examined —
// the simultaneous-open window, made steerable so the adopt/ensureConn
// interleaving can be forced deterministically instead of raced.
var tcpPostDialHook func(init, dialTo ids.ProcID)

// NewTCP builds a TCP transport whose listeners bind loopback.
func NewTCP() *TCP { return NewTCPHost("127.0.0.1") }

// NewTCPHost builds a TCP transport binding listeners on host.
func NewTCPHost(host string) *TCP {
	return &TCP{
		host:   host,
		addrs:  make(map[ids.ProcID]string),
		locals: make(map[ids.ProcID]*tcpEndpoint),
		pairs:  make(map[pairKey]*pairMux),
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

// Stats implements Transport. ConnsOpen reports the pair links currently
// established — the lazily-dialed connection footprint a monitoring
// topology actually produces (pairs whose mux exists but whose link is
// down or not yet dialed do not count).
func (t *TCP) Stats() Stats {
	s := t.stats.snapshot()
	t.mu.RLock()
	pairs := make([]*pairMux, 0, len(t.pairs))
	for _, m := range t.pairs {
		pairs = append(pairs, m)
	}
	t.mu.RUnlock()
	for _, m := range pairs {
		m.mu.Lock()
		if m.conn != nil {
			s.ConnsOpen++
		}
		s.SendQueueNow += int64(m.pending)
		m.mu.Unlock()
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
	ep := &tcpEndpoint{ln: ln, h: h, conns: make(map[net.Conn]struct{})}
	t.locals[p] = ep
	t.localsGen.Add(1)
	t.addrs[p] = ln.Addr().String()
	t.wg.Add(1)
	go t.accept(ep)
	return nil
}

// Unregister implements Transport: p's listener, its accepted connections,
// and every pair mux touching p close, so peers sending to it fail and
// drop, like a dead host. Channels between other pairs are untouched.
func (t *TCP) Unregister(p ids.ProcID) {
	t.mu.Lock()
	ep, ok := t.locals[p]
	if ok {
		delete(t.locals, p)
		t.localsGen.Add(1)
	}
	// The stale address stays in addrs: dials to it now fail, which is
	// exactly the dead-host behavior senders must see.
	var drop []*pairMux
	for k, m := range t.pairs {
		if k.a == p || k.b == p {
			drop = append(drop, m)
			delete(t.pairs, k)
		}
	}
	if len(drop) > 0 {
		t.republishPairsLocked()
	}
	t.mu.Unlock()
	// Muxes stop before the endpoint shuts down, so the reader of a pair
	// stream p's endpoint accepted finds its mux stopped and reports
	// nothing: the evidence below is the one report.
	for _, m := range drop {
		m.stop()
		t.noteClosed(p, m.other(p))
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
		// Self-sends never touch a socket (there is no {p, p} pair);
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
	k := pairOf(from, to)
	// Fast path: resolve the mux from the lock-free snapshot. enqueue
	// reports false only for a mux stopped since the snapshot — fall
	// through and let the locked path sort out why.
	if snap := t.pairsSnap.Load(); snap != nil {
		if mx := (*snap)[k]; mx != nil && mx.enqueue(chanKey{from, to}, m) {
			return
		}
	}
	t.mu.RLock()
	closed := t.closed
	mx := t.pairs[k]
	t.mu.RUnlock()
	if closed {
		t.stats.closed.Add(1)
		return
	}
	if mx == nil {
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			t.stats.closed.Add(1)
			return
		}
		mx = t.pairs[k]
		if mx == nil {
			mx = t.newPairLocked(k, to)
		}
		t.mu.Unlock()
	}
	if !mx.enqueue(chanKey{from, to}, m) {
		t.stats.closed.Add(1)
	}
}

// newPairLocked creates the mux for pair k and starts its writer; t.mu
// must be held. dialTo is the end this instance dials if it has to
// establish the link itself.
func (t *TCP) newPairLocked(k pairKey, dialTo ids.ProcID) *pairMux {
	m := &pairMux{
		t:      t,
		key:    k,
		dialTo: dialTo,
		queues: make(map[chanKey]*muxQueue, 2),
		wake:   make(chan struct{}, 1),
		quit:   make(chan struct{}),
	}
	t.pairs[k] = m
	t.republishPairsLocked()
	t.wg.Add(1)
	go m.run()
	return m
}

// republishPairsLocked refreshes the lock-free pairs snapshot; t.mu must
// be held. Pair churn is rare (creation, unregister, close), so the copy
// cost never rides the send path.
func (t *TCP) republishPairsLocked() {
	snap := make(map[pairKey]*pairMux, len(t.pairs))
	for k, m := range t.pairs {
		snap[k] = m
	}
	t.pairsSnap.Store(&snap)
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
	t.localsGen.Add(1)
	muxes := make([]*pairMux, 0, len(t.pairs))
	for _, m := range t.pairs {
		muxes = append(muxes, m)
	}
	t.pairs = make(map[pairKey]*pairMux)
	t.republishPairsLocked()
	t.mu.Unlock()
	for _, ep := range eps {
		ep.shutdown()
	}
	for _, m := range muxes {
		m.stop()
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
		go t.readConn(c, ep, nil)
	}
}

// readConn drains one connection — accepted (ep non-nil) or dialed by a
// pair writer (m non-nil) — decoding each frame on this goroutine and
// routing it to the addressed local handler. The stream is buffered, so a
// frame costs amortized fractions of a read syscall rather than two. A
// muxHello adopts the connection into its pair's mux so the accepting
// side can send on the same socket.
func (t *TCP) readConn(c net.Conn, ep *tcpEndpoint, m *pairMux) {
	defer t.wg.Done()
	fr := newFrameReader(bufio.NewReaderSize(c, 128<<10))
	rs := newRouteState()
	ended := false // the stream ended under us, not by this side's choice
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
		if _, hello := f.Body.(muxHello); hello {
			mm, keep := t.adopt(f, c)
			if !keep {
				break
			}
			if mm != nil {
				m = mm
			}
			continue
		}
		t.route(f, rs)
	}
	switch {
	case m != nil && ended:
		m.connLost(c)
	case m != nil:
		m.dropConn(c)
	}
	if ep != nil {
		ep.untrack(c)
	}
	c.Close()
}

// routeState caches one inbound goroutine's routing lookups so the
// steady-state read path avoids a string-keyed map hash and an RWMutex
// round per frame. An instance is confined to one connection's reader
// and dies with the connection — which is what starts the FIFO check
// fresh across a reconnect.
type routeState struct {
	seqs  map[chanKey]*uint64 // per-channel mux sequence floor
	lastK chanKey             // cache of the channel the previous frame used
	lastP *uint64
	eps   [2]epCache // a mux connection serves exactly two destinations
	next  int
	gen   uint64
}

type epCache struct {
	to ids.ProcID
	ep *tcpEndpoint
	ok bool
}

func newRouteState() *routeState { return &routeState{seqs: make(map[chanKey]*uint64)} }

func (rs *routeState) seqPtr(k chanKey) *uint64 {
	if rs.lastP != nil && k == rs.lastK {
		return rs.lastP
	}
	p := rs.seqs[k]
	if p == nil {
		p = new(uint64)
		rs.seqs[k] = p
	}
	rs.lastK, rs.lastP = k, p
	return p
}

// endpoint resolves to's local endpoint through a generation-checked
// cache: any Register/Unregister bumps t.localsGen, invalidating every
// cached entry at once, so a cached hit can never outlive the
// registration it saw.
func (rs *routeState) endpoint(t *TCP, to ids.ProcID) *tcpEndpoint {
	if t.localsGen.Load() == rs.gen {
		for i := range rs.eps {
			if rs.eps[i].ok && rs.eps[i].to == to {
				return rs.eps[i].ep
			}
		}
	}
	t.mu.RLock()
	ep := t.locals[to]
	gen := t.localsGen.Load() // re-read under the lock: stable vs writers
	t.mu.RUnlock()
	if gen != rs.gen {
		rs.eps, rs.next, rs.gen = [2]epCache{}, 0, gen
	}
	rs.eps[rs.next] = epCache{to: to, ep: ep, ok: true}
	rs.next = (rs.next + 1) % len(rs.eps)
	return ep
}

// route hands one inbound frame to the local process it addresses. A
// frame for a process this instance does not host is dropped, not
// misdelivered — the port-reuse hazard: after a process dies, the OS can
// hand its ephemeral port to a new listener while senders still dial the
// stale address. Every frame must advance its channel's mux sequence
// within this connection — the §2.1 FIFO contract made checkable on the
// wire for the stream's lifetime — so an unsequenced frame (Seq 0) is
// dropped like a replay; only the mux hello, handled before route, is
// unsequenced. Across a reconnect
// the check starts fresh: the boundary keeps datagram semantics (a frame
// retried on the replacement connection can duplicate or reorder against
// the dying stream's tail), exactly as the one-socket-per-channel design
// behaved on redial.
func (t *TCP) route(f Frame, rs *routeState) {
	from, err := ids.Parse(f.From)
	if err != nil {
		return
	}
	to, err := ids.Parse(f.To)
	if err != nil {
		return
	}
	ep := rs.endpoint(t, to)
	if ep == nil {
		return
	}
	p := rs.seqPtr(chanKey{from, to})
	if f.Seq <= *p {
		return // unsequenced, stale or replayed within the stream: never reorder
	}
	*p = f.Seq
	ep.h(from, Message{MsgID: f.MsgID, Payload: f.Body})
}

// adopt attaches an accepted mux connection to its pair entry, resolving
// simultaneous opens deterministically: the connection initiated by the
// smaller pair end survives on both sides. Returns the mux to associate
// with the reader (nil for read-only use) and whether to keep reading.
func (t *TCP) adopt(hello Frame, c net.Conn) (*pairMux, bool) {
	init, err := ids.Parse(hello.From)
	if err != nil {
		return nil, false
	}
	acceptor, err := ids.Parse(hello.To)
	if err != nil || init == acceptor {
		return nil, false
	}
	k := pairOf(init, acceptor)
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, false
	}
	if _, local := t.locals[acceptor]; !local {
		// A hello for a pair this instance does not host: stale-port or
		// adversarial traffic. Reject rather than allocate mux state and
		// a writer goroutine for an unverifiable pair.
		t.mu.Unlock()
		return nil, false
	}
	m := t.pairs[k]
	if m == nil {
		m = t.newPairLocked(k, init) // redials go back to the initiator
	}
	t.mu.Unlock()

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stopped {
		return nil, false
	}
	switch {
	case m.conn == nil:
		m.conn, m.connInit = c, init
		m.wakeLocked()
		return m, true
	case m.connInit == init && farEndOf(m.conn, c):
		// The far end of our own dialed connection (both pair ends live
		// in this instance): read from it, write on the dialed end.
		return nil, true
	case m.connInit == init, init.Less(m.connInit):
		// Same initiator on a new socket (remote redialed after its old
		// conn died), or a simultaneous open won by the smaller end:
		// the inbound connection replaces the incumbent.
		old := m.conn
		m.conn, m.connInit = c, init
		old.Close()
		m.wakeLocked()
		return m, true
	default:
		return nil, false // simultaneous open, incumbent wins: reject inbound
	}
}

// farEndOf reports whether accepted is the other end of the socket dialed
// here — the two legs of one connection when both pair ends share this
// instance.
func farEndOf(dialed, accepted net.Conn) bool {
	return dialed.LocalAddr().String() == accepted.RemoteAddr().String()
}

// --- pairMux -----------------------------------------------------------------

// pairMux is the multiplexed link for one unordered peer pair. All
// directed channels between the two ends share one connection; a single
// writer goroutine drains the per-channel FIFO queues round-robin so no
// channel can starve another, and each channel's frames enter the byte
// stream in send order.
type pairMux struct {
	t   *TCP
	key pairKey

	mu       sync.Mutex
	queues   map[chanKey]*muxQueue
	lastK    chanKey   // cache of the queue the previous enqueue used:
	lastQ    *muxQueue // a mux serves 2 channels, so the hit rate is high
	rr       []chanKey // round-robin scan order over queues
	rrNext   int
	pending  int
	conn     net.Conn   // established link: dialed here or adopted from accept
	connInit ids.ProcID // which pair end initiated conn (simultaneous-open tie-break)
	dialTo   ids.ProcID // the end this instance dials to establish the link
	dialing  bool       // ensureConn is dialing: a stream lost meanwhile is no evidence
	stopped  bool

	wake chan struct{}
	quit chan struct{}
}

// muxQueue is one directed channel's FIFO of queued frames.
type muxQueue struct {
	frames []Frame
	head   int
	seq    uint64 // last mux sequence stamped on this channel
}

func (m *pairMux) other(p ids.ProcID) ids.ProcID {
	if p == m.key.a {
		return m.key.b
	}
	return m.key.a
}

func (m *pairMux) wakeLocked() {
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

// enqueue appends one message to its channel's FIFO queue, stamped with
// the channel's next mux sequence, reporting false if the mux has been
// stopped (the caller owns that accounting).
func (m *pairMux) enqueue(k chanKey, msg Message) bool {
	m.mu.Lock()
	if m.stopped {
		m.mu.Unlock()
		return false
	}
	q := m.lastQ
	if q == nil || k != m.lastK {
		q = m.queues[k]
		if q == nil {
			q = &muxQueue{}
			m.queues[k] = q
			m.rr = append(m.rr, k)
		}
		m.lastK, m.lastQ = k, q
	}
	if len(q.frames)-q.head >= tcpQueueDepth {
		m.mu.Unlock()
		m.t.stats.queueSaturated.Add(1)
		return true
	}
	q.seq++
	q.frames = append(q.frames, Frame{From: k.from.String(), To: k.to.String(), Seq: q.seq, MsgID: msg.MsgID, Body: msg.Payload})
	m.pending++
	depth := len(q.frames) - q.head
	m.mu.Unlock()
	m.t.stats.queueDepth(int64(depth))
	m.wakeLocked()
	return true
}

// Batch limits for the pair writer. A batch becomes one vectored write;
// the byte cap chunks a burst of large frames so the encode arena stays
// bounded no matter what rides the stream.
const (
	batchMaxFrames = 1024
	batchMaxBytes  = 256 << 10
)

// popLocked pops the next frame to write, scanning channels round-robin
// from just past the last one served; m.mu must be held.
func (m *pairMux) popLocked() (Frame, bool) {
	if m.pending == 0 {
		return Frame{}, false
	}
	n := len(m.rr)
	for i := 0; i < n; i++ {
		slot := (m.rrNext + i) % n
		q := m.queues[m.rr[slot]]
		if q.head == len(q.frames) {
			continue
		}
		f := q.frames[q.head]
		q.frames[q.head] = Frame{}
		q.head++
		if q.head == len(q.frames) {
			q.frames, q.head = q.frames[:0], 0
		}
		m.pending--
		m.rrNext = (slot + 1) % n
		return f, true
	}
	return Frame{}, false
}

// nextBatch drains every ready channel queue round-robin into dst under
// ONE lock acquisition, up to the batch frame cap — under backlog the
// per-frame synchronization cost amortizes across the whole batch.
func (m *pairMux) nextBatch(dst []Frame) []Frame {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(dst) < batchMaxFrames {
		f, ok := m.popLocked()
		if !ok {
			break
		}
		dst = append(dst, f)
	}
	return dst
}

// run is the pair's writer goroutine: it pops a batch of ready frames,
// encodes them back-to-back into a reusable arena, and hands the result
// to the kernel as one vectored write — syscalls and queue locks cost
// per batch, not per frame.
func (m *pairMux) run() {
	defer m.t.wg.Done()
	w := muxWriter{m: m}
	var batch []Frame
	for {
		batch = m.nextBatch(batch[:0])
		if len(batch) == 0 {
			select {
			case <-m.quit:
				return
			case <-m.wake:
				continue
			}
		}
		w.writeBatch(batch)
	}
}

// muxWriter owns one writer goroutine's scratch state: the encode arena
// and the vectored-write buffer list.
type muxWriter struct {
	m     *pairMux
	arena []byte
	bufs  net.Buffers
	vec   net.Buffers // scratch header consumed by WriteTo
}

// writeBatch encodes the batch into the arena and writes it out in
// chunks of at most batchMaxBytes, each chunk one vectored write. A
// failed chunk retries in full on a fresh connection — duplicating
// across the boundary is permitted datagram semantics, and frames
// deduplicate at the reader's mux sequence check. Once a chunk is lost
// the rest of the batch is dropped too: the link stayed down through the
// whole retry budget, and redialing per chunk would only stall the
// queues further.
func (w *muxWriter) writeBatch(batch []Frame) {
	a := w.arena[:0]
	chunk := 0 // frames encoded into a and not yet written
	for i := range batch {
		var err error
		a, err = appendPrefixed(a, batch[i])
		if err != nil {
			w.m.t.stats.drop(dropWriteFailed) // unencodable frame: skip it, keep the batch
			continue
		}
		chunk++
		if len(a) >= batchMaxBytes {
			if ok, why := w.flush(a, chunk); !ok {
				w.m.t.stats.dropN(why, int64(len(batch)-i-1))
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
// transiently unreachable peer (a dial racing a simultaneous open, an
// accept loop starved on a loaded host) must be retried here, with
// backoff, rather than silently dropped. The bound keeps a writer from
// spinning on a genuinely dead peer — only this pair's queue stalls
// meanwhile, and a dead peer has nothing else to say on it. (A crashed
// peer refuses instantly, so the dead-host cost is the backoff sleeps,
// not the dial timeouts; the budget is sized for a host descheduled for
// whole seconds, as happens with hundreds of member processes per core
// in the E19 harness.)
const flushAttempts = 8

// flushBackoffCap caps the linear per-attempt backoff.
const flushBackoffCap = 500 * time.Millisecond

// flush writes a as one vectored write, redialing with backoff on
// failure; the chunk's frames are accounted as drops only once the link
// stays unestablishable (or rejected) through every attempt.
func (w *muxWriter) flush(a []byte, frames int) (bool, dropReason) {
	if frames == 0 {
		return true, dropNone
	}
	why := dropWriteFailed
	for attempt := 0; attempt < flushAttempts; attempt++ {
		if attempt > 0 {
			backoff := min(time.Duration(attempt)*100*time.Millisecond, flushBackoffCap)
			select {
			case <-w.m.quit:
				w.m.t.stats.dropN(dropClosed, int64(frames))
				return false, dropClosed
			case <-time.After(backoff):
			}
		}
		c, dialWhy := w.m.ensureConn()
		if c == nil {
			why = dialWhy
			if why != dropDialFailed {
				// Stopped mux or unknown peer: no later attempt can do
				// better, so don't stall the queue behind a lost cause.
				w.m.t.stats.dropN(why, int64(frames))
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
		w.m.connLost(c)
	}
	w.m.t.stats.dropN(why, int64(frames))
	return false, why
}

// reclaim keeps the arena for the next batch unless a burst of large
// frames ballooned it past any steady-state need.
func (w *muxWriter) reclaim(a []byte) {
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

// ensureConn returns the pair's connection, dialing (and introducing the
// link with a muxHello) if none is established. A connection adopted from
// the accept side while we dialed is resolved by the same rule adopt
// applies: the connection initiated by the smaller pair end survives.
// Both sides must pick the same winner — if this end kept whichever
// socket happened to establish first while the far end kept the other,
// a simultaneous open would leave each side writing into a connection
// its peer has already abandoned. The one adopted connection that is not
// a rival is the far end of the socket dialed here, when both pair ends
// share this instance.
func (m *pairMux) ensureConn() (net.Conn, dropReason) {
	m.mu.Lock()
	if m.stopped {
		m.mu.Unlock()
		return nil, dropClosed
	}
	if m.conn != nil {
		c := m.conn
		m.mu.Unlock()
		return c, dropNone
	}
	dialTo := m.dialTo
	init := m.other(dialTo)
	// While the dial is out, an adopted stream that ends may be the
	// loser of a simultaneous open, so it is not reported (connLost);
	// the dial's own outcome is the evidence, a refusal included.
	m.dialing = true
	m.mu.Unlock()
	failed := func(why dropReason) (net.Conn, dropReason) {
		m.mu.Lock()
		m.dialing = false
		m.mu.Unlock()
		return nil, why
	}

	t := m.t
	t.mu.RLock()
	addr, ok := t.addrs[dialTo]
	t.mu.RUnlock()
	if !ok {
		return failed(dropUnknownPeer)
	}
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		if errors.Is(err, syscall.ECONNREFUSED) {
			t.noteClosed(dialTo, init) // nothing listens at dialTo's address
		}
		return failed(dropDialFailed)
	}
	if err := WriteFrame(c, Frame{From: init.String(), To: dialTo.String(), Body: muxHello{}}); err != nil {
		c.Close()
		return failed(dropDialFailed)
	}
	if h := tcpPostDialHook; h != nil {
		h(init, dialTo)
	}
	m.mu.Lock()
	m.dialing = false
	if m.stopped {
		m.mu.Unlock()
		c.Close()
		return nil, dropClosed
	}
	var old net.Conn
	if adopted := m.conn; adopted != nil { // adopted from the accept side while we dialed
		switch {
		case m.connInit == init && farEndOf(c, adopted):
			// Both pair ends live in this instance, and the accept side
			// installed the far end of the socket we just dialed before we
			// got back here: our own loopback leg (the case adopt sees
			// from the other side), not a rival. Closing the dialed socket
			// would kill the one kept; it stays open to be read from, and
			// writes go on the dialed end as if we had got here first.
		case init.Less(m.connInit):
			// This end is the smaller initiator: the far end's adopt keeps
			// the connection *we* dialed, so the adopted one here is already
			// abandoned over there. Our dial wins on both sides.
			old = adopted
		default:
			// The adopted connection's initiator wins the simultaneous
			// open: keep it.
			m.mu.Unlock()
			c.Close()
			return adopted, dropNone
		}
	}
	m.conn, m.connInit = c, init
	m.mu.Unlock()
	if old != nil {
		old.Close()
	}
	t.wg.Add(1)
	go t.readConn(c, nil, m) // the reverse direction rides the same socket
	return c, dropNone
}

// dropConn clears c from the mux if it is the established connection and
// closes it; the writer redials (or picks up an adopted replacement) on
// the next frame. It reports whether losing c is evidence about the far
// end: c was the established connection of a running mux and no dial of
// this end's was out. A rival replaced in a simultaneous open, or a
// socket that stop already detached, was never established.
func (m *pairMux) dropConn(c net.Conn) bool {
	m.mu.Lock()
	established := m.conn == c
	if established {
		m.conn, m.connInit = nil, ids.Nil
	}
	evidence := established && !m.dialing
	m.mu.Unlock()
	c.Close()
	return evidence
}

// connLost is dropConn for a stream that ended without this side closing
// it — EOF or a failed write. If c was the pair's established stream,
// each end registered here gets closed-stream evidence about the other.
func (m *pairMux) connLost(c net.Conn) {
	if m.dropConn(c) {
		m.t.noteClosed(m.key.a, m.key.b)
		m.t.noteClosed(m.key.b, m.key.a)
	}
}

// stop tears the mux down: queued frames are discarded and the writer
// exits.
func (m *pairMux) stop() {
	m.mu.Lock()
	if m.stopped {
		m.mu.Unlock()
		return
	}
	m.stopped = true
	c := m.conn
	m.conn = nil
	m.queues = make(map[chanKey]*muxQueue)
	m.lastQ = nil
	m.rr, m.pending = nil, 0
	m.mu.Unlock()
	if c != nil {
		c.Close()
	}
	close(m.quit)
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
