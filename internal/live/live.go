package live

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"procgroup/internal/core"
	"procgroup/internal/event"
	"procgroup/internal/fd"
	"procgroup/internal/ids"
	"procgroup/internal/member"
	"procgroup/internal/topology"
	"procgroup/internal/trace"
	"procgroup/internal/transport"
)

// Heartbeat is the failure-detection beacon; it is substrate traffic and is
// never delivered to the protocol state machine.
type Heartbeat struct{}

// MsgLabel implements netsim.Labeled for uniform counting.
func (Heartbeat) MsgLabel() string { return "Heartbeat" }

// heartbeatKind is the beacon's wire kind tag (kinds ≥ 16 belong to
// substrate layers; see the transport codec's registry).
const heartbeatKind = 16

func init() {
	transport.RegisterBeaconPayload(heartbeatKind, Heartbeat{}) // zero-alloc wire fast path
}

// SubstrateTraffic marks payload types that ride a group's wire without
// being protocol messages — load generators, side-channel bulk data.
// The live runtime drops a marked payload at dispatch: it never reaches
// the protocol state machine (which panics on vocabulary it does not
// know) and it never feeds the failure detector. The second half is
// deliberate layering, not an omission: the detector's evidence is the
// monitoring schedule's beacons, and letting an application's bulk
// stream stand in for them would keep a peer "alive" exactly as long as
// its data flows — masking the saturation failures a separate beacon
// plane exists to expose.
type SubstrateTraffic interface{ SubstrateTraffic() }

// Options configures a live cluster.
type Options struct {
	// N is the initial group size.
	N int
	// Config is the protocol configuration (DefaultConfig if zero).
	Config *core.Config
	// HeartbeatEvery is the beacon interval (default 20ms).
	HeartbeatEvery time.Duration
	// SuspectAfter is the silence threshold before faulty_p(q) fires
	// (default 6 × HeartbeatEvery). It parameterizes the default
	// fixed-timeout detector; a non-nil Detector takes precedence.
	SuspectAfter time.Duration
	// Detector selects the failure-detection policy (F1, §2.2): a
	// factory invoked once per node so every process owns an independent
	// detector instance. Nil selects fd.NewTimeoutFactory(SuspectAfter),
	// the seed behavior; fd.NewHysteresisFactory wraps a timeout with a
	// confirm-before-suspect dwell.
	Detector fd.Factory
	// Transport is the message substrate. Nil selects in-process
	// delivery (transport.NewInmem), the seed behavior. The cluster
	// takes ownership and closes it on Stop.
	Transport transport.Transport
	// Topology selects who monitors whom (beacons + detector state) per
	// installed view. Nil selects topology.Full, the all-to-all seed
	// behavior; topology.RingK monitors k rank-successors, cutting
	// beacon traffic and (on socket transports) connection count from
	// O(n²) to O(n·k) while suspicion digests riding the beacons
	// preserve F1's eventual-suspicion contract. The same Topology value
	// is shared by every node (implementations are stateless).
	Topology topology.Topology
	// UpdateBuffer sizes the installed-view stream (default 1024).
	// When subscribers fall behind, installs are dropped and counted on
	// Dropped rather than wedging the protocol.
	UpdateBuffer int
	// Readmit rate-limits readmission of recently excluded sites (see
	// ReadmitPolicy): the coordinator defers a rejoining incarnation
	// whose site has exhausted its token bucket, so a flapping node
	// cannot force endless reconfigurations. The zero value disables
	// the governor, the pre-governor behavior.
	Readmit ReadmitPolicy
	// App, when set, attaches an application layer to every node: the
	// factory runs once per spawned process (before its loop starts) and
	// the resulting AppHook receives AppTraffic payloads and view
	// installs on the node's event loop. This is how a broadcast or
	// replication layer rides the group — see internal/broadcast.
	App AppHookFactory
	// Self, when set, puts the cluster in single-member mode for
	// multi-process deployments: Start spawns exactly this process (N is
	// ignored) and does NOT bootstrap it — the process first needs its
	// peers' transport addresses wired up (AddPeer), then BootstrapSelf
	// installs Roster. Each OS process hosts one such cluster; the group
	// is the set of processes whose rosters agree.
	Self ids.ProcID
	// Roster is the commonly-known initial membership (GMP-0) that
	// BootstrapSelf installs, in seniority order, Self included.
	Roster []ids.ProcID
}

// ViewUpdate is one installed view, published to subscribers.
type ViewUpdate struct {
	Proc    ids.ProcID
	Ver     member.Version
	Members []ids.ProcID
}

// Cluster is a running group of live protocol nodes.
type Cluster struct {
	opts Options
	rec  *trace.Recorder
	tr   transport.Transport

	dropped atomic.Int64 // installs lost to a full updates stream
	// readmitDeferred counts joins the readmission governor deferred
	// (each deferral is one reconfiguration that did NOT happen yet).
	readmitDeferred atomic.Int64

	mu      sync.Mutex
	nodes   map[ids.ProcID]*liveNode
	updates chan ViewUpdate
	// installed pulses (capacity 1) whenever any node installs a view or
	// the running set changes, so convergence waiters wake on the event
	// instead of polling.
	installed chan struct{}
	start     time.Time
	wg        sync.WaitGroup
	stopped   bool
}

// liveNode is one process: a core.Node driven by a goroutine event loop.
type liveNode struct {
	c    *Cluster
	id   ids.ProcID
	box  *mailbox
	stop chan struct{}
	done chan struct{}

	// loop-owned state (never touched outside the event loop):
	node *core.Node
	// watch is the set this node monitors (runs detector state for) and
	// beaconTo the set that monitors this node (so it must beacon to
	// them); wheel is their union in view order, the sequence one beat
	// pass walks. All three are recomputed from Options.Topology at
	// every install — O(k) under a partial topology instead of the O(n)
	// all-peers the pre-topology wheel tracked. For topology.Full every
	// member is both beaconed and watched and the wheel is the view
	// minus self in view order.
	watch    []ids.ProcID
	beaconTo []ids.ProcID
	wheel    []wheelEntry
	watchSet ids.Set
	// partial records whether this node's monitoring is partial (it does
	// not watch every peer): only then do point-to-point suspicions ride
	// the beacons as digests (core.SuspicionGossiper), because under full
	// monitoring every process observes every failure itself. Recomputed
	// per install like the wheel. digestOut holds suspicions waiting to
	// ride this node's beacons and digestSeen the suspects already
	// absorbed or queued (echo dedup); both are loop-owned and pruned
	// against each installed view.
	partial    bool
	digestOut  map[ids.ProcID]*digestPending
	digestSeen ids.Set
	det        fd.Detector // failure-detection policy (F1 input)
	lastBeat   time.Time   // previous liveness-wheel pass (stall guard)
	app        AppHook     // application layer (Options.App), nil when unset
	// gov is the readmission governor (nil when Options.Readmit is zero)
	// and govWakeArmed whether a deferred-join recheck timer is pending;
	// both loop-owned.
	gov          *readmitGov
	govWakeArmed bool
}

// wheelEntry is one member's role in a node's liveness wheel.
type wheelEntry struct {
	m      ids.ProcID
	beacon bool // this node beacons to m (m monitors this node)
	watch  bool // this node monitors m (detector state + suspicion)
}

// buildWheel merges beaconTo and watch into the view's member order, so
// one pass walks each member once: beacon first, then suspicion.
func buildWheel(members []ids.ProcID, self ids.ProcID, beaconTo, watch []ids.ProcID) []wheelEntry {
	beacons, watches := ids.NewSet(beaconTo...), ids.NewSet(watch...)
	wheel := make([]wheelEntry, 0, len(beaconTo)+len(watch))
	for _, m := range members {
		if m == self {
			continue
		}
		e := wheelEntry{m: m, beacon: beacons.Has(m), watch: watches.Has(m)}
		if e.beacon || e.watch {
			wheel = append(wheel, e)
		}
	}
	return wheel
}

// Start boots a cluster of opts.N processes and waits until every node has
// installed the initial view.
func Start(opts Options) *Cluster {
	if opts.N <= 0 {
		opts.N = 3
	}
	if opts.HeartbeatEvery <= 0 {
		opts.HeartbeatEvery = 20 * time.Millisecond
	}
	if opts.SuspectAfter <= 0 {
		opts.SuspectAfter = 6 * opts.HeartbeatEvery
	}
	if opts.UpdateBuffer <= 0 {
		opts.UpdateBuffer = 1024
	}
	if opts.Detector == nil {
		opts.Detector = fd.NewTimeoutFactory(opts.SuspectAfter)
	}
	if opts.Transport == nil {
		opts.Transport = transport.NewInmem()
	}
	if opts.Topology == nil {
		opts.Topology = topology.Full{}
	}
	cfg := nodeConfig(opts)

	c := &Cluster{
		opts:      opts,
		tr:        opts.Transport,
		nodes:     make(map[ids.ProcID]*liveNode, opts.N),
		updates:   make(chan ViewUpdate, opts.UpdateBuffer),
		installed: make(chan struct{}, 1),
		start:     time.Now(),
	}
	c.rec = trace.NewRecorder(func() int64 { return int64(time.Since(c.start) / time.Microsecond) })

	if !opts.Self.IsNil() {
		// Single-member mode: one process of a multi-process group. The
		// node idles unbootstrapped until the harness has exchanged
		// transport addresses and calls BootstrapSelf.
		c.mu.Lock()
		c.spawnLocked(opts.Self, cfg)
		c.mu.Unlock()
		return c
	}

	procs := ids.Gen(opts.N)
	c.mu.Lock()
	for _, p := range procs {
		c.spawnLocked(p, cfg)
	}
	for _, p := range procs {
		if ln := c.nodes[p]; ln != nil {
			ln.box.put(envelope{fn: func() { ln.node.Bootstrap(procs) }})
		}
	}
	c.mu.Unlock()
	return c
}

// BootstrapSelf installs Options.Roster on the single member this cluster
// hosts (Options.Self mode). Call it once, after every peer in the roster
// is reachable on the transport — in a multi-process group that means
// after the address exchange. A no-op in normal (multi-node) mode.
func (c *Cluster) BootstrapSelf() {
	roster := c.opts.Roster
	if c.opts.Self.IsNil() || len(roster) == 0 {
		return
	}
	c.mu.Lock()
	ln := c.nodes[c.opts.Self]
	c.mu.Unlock()
	if ln != nil {
		ln.box.put(envelope{fn: func() { ln.node.Bootstrap(roster) }})
	}
}

// nodeConfig resolves the protocol configuration a node runs: the caller's
// Config (DefaultConfig when nil) with the live-runtime defaults applied.
// Live timers tick in milliseconds.
func nodeConfig(opts Options) core.Config {
	cfg := core.DefaultConfig()
	if opts.Config != nil {
		cfg = *opts.Config
	}
	if cfg.ReconfigWait == 0 {
		cfg.ReconfigWait = int64(4 * opts.SuspectAfter / time.Millisecond)
	}
	// Partial monitoring needs the await fallback: a round or phase must
	// not wedge on a member whose only monitors are gone. Full keeps
	// AwaitWait disabled — the seed behavior, where the detector itself
	// feeds every await.
	if _, full := opts.Topology.(topology.Full); !full && cfg.AwaitWait == 0 {
		cfg.AwaitWait = int64(4 * opts.SuspectAfter / time.Millisecond)
	}
	return cfg
}

// spawnLocked creates and starts a node goroutine; c.mu must be held. The
// node is registered with the transport before its loop starts, so no
// bootstrap traffic can race past it; a registration failure (duplicate
// id, or a socket transport that cannot open an endpoint) yields nil and
// no node.
func (c *Cluster) spawnLocked(p ids.ProcID, cfg core.Config) *liveNode {
	ln := &liveNode{
		c:          c,
		id:         p,
		box:        newMailbox(),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
		det:        c.opts.Detector(),
		digestOut:  make(map[ids.ProcID]*digestPending),
		digestSeen: ids.NewSet(),
		gov:        newReadmitGov(c.opts.Readmit),
	}
	ln.node = core.New(p, (*liveEnv)(ln), cfg)
	if err := c.tr.Register(p, ln.deliver); err != nil {
		return nil
	}
	if c.opts.App != nil {
		// After Register (the hook may send immediately) and before the
		// loop starts (so it observes every install from the first).
		ln.app = c.opts.App((*appNode)(ln))
	}
	c.nodes[p] = ln
	c.rec.RecordStart(p)
	c.wg.Add(1)
	go ln.run()
	return ln
}

// deliver is the transport handler: it appends to the node's mailbox and
// never blocks, as the Transport contract requires.
func (ln *liveNode) deliver(from ids.ProcID, m transport.Message) {
	ln.box.put(envelope{from: from, payload: m.Payload, msgID: m.MsgID})
}

// run is the node's event loop: heartbeats, failure detection, mailbox.
func (ln *liveNode) run() {
	defer close(ln.done)
	defer ln.c.wg.Done()
	tick := time.NewTicker(ln.c.opts.HeartbeatEvery)
	defer tick.Stop()
	for {
		select {
		case <-ln.stop:
			return
		case <-tick.C:
			ln.beat()
			// A suspicion raised by the wheel can cascade into this
			// node quitting itself (an initiator that misses its
			// majority, §4.3) — which unregisters it, so nothing else
			// will ever stop this loop.
			if !ln.node.Alive() {
				return
			}
		case <-ln.box.wake:
			for {
				e, ok := ln.box.take()
				if !ok {
					break
				}
				ln.dispatch(e)
				if !ln.node.Alive() {
					return
				}
			}
		}
	}
}

func (ln *liveNode) dispatch(e envelope) {
	if e.fn != nil {
		e.fn()
		return
	}
	if e.from.IsNil() {
		return
	}
	switch p := e.payload.(type) {
	case Heartbeat:
		if ln.observes(e.from) {
			ln.det.ObserveBeacon(e.from, time.Now())
		}
		return
	case SuspicionDigest:
		// A digest occupies a beacon slot, so it is beacon-grade liveness
		// evidence for the sender — then its entries are absorbed.
		if ln.observes(e.from) {
			ln.det.ObserveBeacon(e.from, time.Now())
		}
		ln.absorbDigest(p)
		return
	case transport.PeerClosed:
		// Closed-stream evidence: the transport saw the sender's stream
		// end. It shortens the detector's wait; silence still decides.
		if ln.observes(e.from) {
			ln.det.Closed(e.from, time.Now())
		}
		return
	case AppTraffic:
		// Application traffic: routed to the hook, never to the protocol,
		// and — like SubstrateTraffic — never to the detector.
		if ln.app != nil {
			ln.app.HandleApp(e.from, e.payload)
		}
		return
	case SubstrateTraffic:
		return // non-protocol wire traffic: not evidence, never delivered
	}
	if ln.observes(e.from) {
		ln.det.Observe(e.from, time.Now())
	}
	if e.msgID != 0 {
		ln.c.rec.RecordRecv(e.from, ln.id, e.msgID, labelOf(e.payload))
	}
	ln.node.Deliver(e.from, e.payload)
}

// observes reports whether traffic from q should feed this node's
// detector. Under a partial topology only watched members do — otherwise
// every coordinator commit or FaultyReport from a non-neighbor would
// regrow the detector's per-peer state (a silence clock each) back to
// O(n) between installs, the exact scaling the topology exists to cap.
// Under full monitoring every sender feeds it, the seed behavior.
func (ln *liveNode) observes(q ids.ProcID) bool {
	return !ln.partial || ln.watchSet.Has(q)
}

// beat is one pass of the node's liveness wheel: a single per-node ticker
// drives beacons and suspicion for the whole monitoring topology — there
// are no per-peer timers. Beacons go to the members that monitor this
// node (beaconTo); detector state is kept, and suspicion raised, only for
// the members this node monitors (watch) — both O(k) under a partial
// topology. Beacons are cadence-pure on every transport: each pass sends
// exactly one beacon-class frame per beaconTo member, whatever protocol
// traffic went out in between, so every emission is one clean
// inter-arrival sample for the peer's detector. Suspicion is delegated to
// the pluggable detector (F1, §2.2): members it declares silent are
// suspected, with its graded suspicion level recorded on the Faulty trace
// event.
func (ln *liveNode) beat() {
	now := time.Now()
	// Stall guard: every node of a cluster shares one OS process, so a
	// process-wide scheduler or GC stall would make every node read
	// every peer as silent on its next beat — a mutual-suspicion storm
	// that can destroy the whole group in one pass. A node that detects
	// its own wheel was stalled cannot distinguish peer silence from its
	// own absence, so it re-arms its observations instead of suspecting;
	// a genuinely dead peer is still caught one threshold later (F1 only
	// demands eventual detection). The trip point keys on the wheel's
	// own cadence — a beat arriving more than a full period late —
	// because a configured Detector's threshold can sit well below
	// SuspectAfter (which caps the guard when tighter).
	// The floor of 1.5 beat periods keeps ordinary tick jitter from
	// tripping it: below that, every normal beat would register as a
	// stall and detection would silently never run.
	guard := 2 * ln.c.opts.HeartbeatEvery
	if ln.c.opts.SuspectAfter/2 < guard {
		guard = ln.c.opts.SuspectAfter / 2
	}
	if floor := 3 * ln.c.opts.HeartbeatEvery / 2; guard < floor {
		guard = floor
	}
	stalled := !ln.lastBeat.IsZero() && now.Sub(ln.lastBeat) > guard
	ln.lastBeat = now
	if len(ln.wheel) == 0 {
		return
	}
	for _, e := range ln.wheel {
		if e.beacon {
			// Pending suspicions ride this beacon slot as a digest
			// instead of a pure heartbeat. The digest is liveness
			// evidence too (receivers feed it to the detector), so the
			// substitution costs the detector nothing.
			var beacon any = Heartbeat{}
			if entries := ln.pendingFor(e.m); len(entries) > 0 {
				beacon = SuspicionDigest{Entries: entries}
			}
			ln.c.post(ln.id, e.m, 0, beacon)
		}
		if !e.watch {
			continue
		}
		switch {
		case stalled:
			ln.det.Rearm(e.m, now)
		case ln.det.Suspect(e.m, now):
			ln.node.SuspectWithLevel(e.m, ln.det.Suspicion(e.m, now))
		}
	}
}

// post hands a payload to the transport. Every Transport implementation
// preserves the per-channel FIFO ordering the protocol requires (§2.1);
// the simulator, not the live substrate, is where adversarial reordering
// across channels is exercised. msgID correlates the receive with its
// recorded send (0 = unrecorded substrate traffic); it travels inside the
// wire frame on socket transports.
func (c *Cluster) post(from, to ids.ProcID, msgID int64, payload any) {
	c.tr.Send(from, to, transport.Message{MsgID: msgID, Payload: payload})
}

// liveEnv adapts a liveNode to core.Env; all methods run on the event loop.
type liveEnv liveNode

func (e *liveEnv) Send(to ids.ProcID, payload any) {
	ln := (*liveNode)(e)
	id := msgID(ln.c)
	ln.c.rec.RecordSend(ln.id, to, id, labelOf(payload))
	ln.c.post(ln.id, to, id, payload)
}

var msgSeq struct {
	mu sync.Mutex
	n  int64
}

func msgID(*Cluster) int64 {
	msgSeq.mu.Lock()
	defer msgSeq.mu.Unlock()
	msgSeq.n++
	return msgSeq.n
}

func labelOf(payload any) string {
	if l, ok := payload.(interface{ MsgLabel() string }); ok {
		return l.MsgLabel()
	}
	return fmt.Sprintf("%T", payload)
}

func (e *liveEnv) After(d int64, fn func()) (cancel func()) {
	ln := (*liveNode)(e)
	var once sync.Once
	cancelled := make(chan struct{})
	t := time.AfterFunc(time.Duration(d)*time.Millisecond, func() {
		select {
		case <-cancelled:
		default:
			ln.box.put(envelope{fn: fn})
		}
	})
	return func() {
		once.Do(func() { close(cancelled); t.Stop() })
	}
}

func (e *liveEnv) Quit() {
	ln := (*liveNode)(e)
	ln.c.unregister(ln.id)
}

func (e *liveEnv) Record(k event.Kind, other ids.ProcID) {
	ln := (*liveNode)(e)
	ln.c.rec.RecordInternal(ln.id, k, other)
}

// GossipActive implements core.SuspicionGossiper: digest dissemination is
// on when this node's current view is under a partial topology — under
// full monitoring (topology.Full, or RingK's k ≥ n−1 degenerate case)
// every member suspects first-hand and digests would only add entries.
// Loop-owned.
func (e *liveEnv) GossipActive() bool {
	return (*liveNode)(e).partial
}

// GossipSuspicion implements core.SuspicionGossiper: the suspicion joins
// the outgoing digest batch and rides this node's next beacons.
func (e *liveEnv) GossipSuspicion(q ids.ProcID, level float64) {
	ln := (*liveNode)(e)
	ln.queueDigest(q, level)
}

// RecordLevel implements core.LevelRecorder: Faulty events carry the
// detector's suspicion level into the trace.
func (e *liveEnv) RecordLevel(k event.Kind, other ids.ProcID, level float64) {
	ln := (*liveNode)(e)
	ln.c.rec.RecordInternalLevel(ln.id, k, other, level)
}

// AdmitJoiner implements core.ReadmissionGovernor: the coordinator's
// pre-Add gate. A deferral counts on Cluster.ReadmitDeferred and arms a
// one-shot recheck timer for when the site's token accrues — the joiner
// is sitting in Recovered(Mgr) with no protocol traffic guaranteed to
// re-trigger the scan, so the governor pokes the node itself.
func (e *liveEnv) AdmitJoiner(q ids.ProcID) bool {
	ln := (*liveNode)(e)
	ok, wait := ln.gov.admit(q, time.Now())
	if !ok {
		ln.c.readmitDeferred.Add(1)
		if !ln.govWakeArmed {
			ln.govWakeArmed = true
			time.AfterFunc(wait+time.Millisecond, func() {
				ln.box.put(envelope{fn: func() {
					ln.govWakeArmed = false
					ln.node.Poke()
				}})
			})
		}
	}
	return ok
}

func (e *liveEnv) RecordInstall(ver member.Version, members []ids.ProcID) {
	ln := (*liveNode)(e)
	now := time.Now()
	// The governor observes exclusions (and consumes grants) by diffing
	// successive installs — before the wheel refresh so the diff uses
	// this install's membership exactly once.
	ln.gov.noteInstall(members, now)
	oldWatch := ln.watchSet
	// Refresh the liveness wheel from the monitoring topology
	// (loop-owned): recomputing on every install is what re-closes a
	// partial topology around excluded members. Detector state is
	// retained only for the watch set, so it is O(k) under a partial
	// topology.
	topo := ln.c.opts.Topology
	ln.watch = topo.Monitors(members, ln.id)
	ln.beaconTo = topology.BeaconTargets(topo, members, ln.id)
	ln.watchSet = ids.NewSet(ln.watch...)
	ln.wheel = buildWheel(members, ln.id, ln.beaconTo, ln.watch)
	ln.partial = len(ln.watch) < len(members)-1
	ln.pruneDigests(ids.NewSet(members...))
	ln.det.Retain(ln.watch)
	// A member entering the watch set starts with a fresh silence clock.
	// Its last observation may be arbitrarily stale: a joiner's
	// sponsorship traffic is observed when it asks to join, which can be
	// long before its add commits (the readmission governor deferring it
	// stretches that gap past any threshold), and charging the wait as
	// silence would suspect the newcomer on the first wheel pass after
	// its own admission. Rearm refreshes the clock without charging the
	// gap to the peer as recovered (mistaken) silence.
	for _, q := range ln.watch {
		if !oldWatch.Has(q) {
			ln.det.Rearm(q, now)
		}
	}
	ln.c.rec.RecordInstall(ln.id, ver, members)
	if ln.app != nil {
		// The app layer hears about the install after the runtime's own
		// state is refreshed, so anything it sends rides the new wheel.
		ln.app.HandleInstall(ver, members)
	}
	upd := ViewUpdate{Proc: ln.id, Ver: ver, Members: members}
	select {
	case ln.c.updates <- upd:
	default:
		// Subscriber too slow: drop rather than wedge the protocol, but
		// leave the loss observable.
		ln.c.dropped.Add(1)
	}
	ln.c.pulse()
}

// pulse wakes convergence waiters; it never blocks.
func (c *Cluster) pulse() {
	select {
	case c.installed <- struct{}{}:
	default:
	}
}

// unregister removes a node from the transport (its endpoint and mailbox
// stop accepting) without joining its goroutine; the loop exits on its own.
func (c *Cluster) unregister(p ids.ProcID) {
	c.mu.Lock()
	ln, ok := c.nodes[p]
	if ok {
		delete(c.nodes, p)
	}
	c.mu.Unlock()
	if ok {
		c.tr.Unregister(p)
		ln.box.close()
		c.pulse() // the running set changed
	}
}

// --- Public surface ---------------------------------------------------------

// Updates streams installed views from every node (best effort).
func (c *Cluster) Updates() <-chan ViewUpdate { return c.updates }

// Dropped reports how many installs were lost because the Updates stream
// was full. A nonzero count means subscribers fell behind by more than
// Options.UpdateBuffer installs.
func (c *Cluster) Dropped() int64 { return c.dropped.Load() }

// ReadmitDeferred reports how many joins the readmission governor has
// deferred across the cluster so far — each one a reconfiguration the
// rate-limit pushed back. Always 0 with Options.Readmit unset.
func (c *Cluster) ReadmitDeferred() int64 { return c.readmitDeferred.Load() }

// TransportStats reports the substrate's per-reason drop counters —
// Dropped's sibling one layer down: Dropped counts view updates lost to a
// slow subscriber, TransportStats counts wire frames lost to saturation,
// unknown peers, or dead hosts.
func (c *Cluster) TransportStats() transport.Stats { return c.tr.Stats() }

// Transport exposes the cluster's message substrate (for tests and tools
// that need endpoint addresses, e.g. TCP peer directories).
func (c *Cluster) Transport() transport.Transport { return c.tr }

// Recorder exposes the run trace.
func (c *Cluster) Recorder() *trace.Recorder { return c.rec }

// StartedAt is the wall-clock zero of the recorder's timestamps — the
// offset that lets traces from multiple OS processes (Options.Self mode)
// merge onto one absolute timeline.
func (c *Cluster) StartedAt() time.Time { return c.start }

// Kill hard-crashes a process: its goroutine stops and its transport
// endpoint is torn down, exactly like a host failure.
func (c *Cluster) Kill(p ids.ProcID) {
	c.mu.Lock()
	ln, ok := c.nodes[p]
	if ok {
		delete(c.nodes, p)
	}
	c.mu.Unlock()
	if !ok {
		return
	}
	c.tr.Unregister(p)
	close(ln.stop)
	ln.box.close()
	<-ln.done
	c.pulse() // the running set changed
}

// Join spawns a new process that asks contact to sponsor it into the group.
func (c *Cluster) Join(p, contact ids.ProcID) {
	cfg := nodeConfig(c.opts)
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	ln := c.spawnLocked(p, cfg)
	c.mu.Unlock()
	if ln == nil {
		return // duplicate id or endpoint failure; nothing was spawned
	}
	ln.box.put(envelope{fn: func() { ln.node.StartJoin(contact) }})
}

// Query runs fn on p's event loop and waits for it — the only safe way to
// read node state.
func (c *Cluster) Query(p ids.ProcID, fn func(n *core.Node)) bool {
	c.mu.Lock()
	ln, ok := c.nodes[p]
	c.mu.Unlock()
	if !ok {
		return false
	}
	done := make(chan struct{})
	ln.box.put(envelope{fn: func() {
		fn(ln.node)
		close(done)
	}})
	select {
	case <-done:
		return true
	case <-ln.done:
		return false
	}
}

// ViewOf returns p's current view, or nil if p is gone.
func (c *Cluster) ViewOf(p ids.ProcID) *member.View {
	var v *member.View
	c.Query(p, func(n *core.Node) { v = n.View() })
	return v
}

// Running lists the processes still executing, in deterministic order.
func (c *Cluster) Running() []ids.ProcID {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := ids.NewSet()
	for p := range c.nodes {
		s.Add(p)
	}
	return s.Sorted()
}

// WaitConverged blocks until every running process reports the same view
// and that view's membership equals the running set, or the deadline
// passes. It returns the converged view or an error. Waiting is
// event-driven — each view install wakes the check — so convergence is
// observed when it happens, not at the next poll; a coarse ticker backs
// the pulse up against running-set changes that install nothing.
func (c *Cluster) WaitConverged(timeout time.Duration) (*member.View, error) {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	// The pulse channel carries the latency-sensitive wakeups; the ticker
	// is only a coarse backstop, so it stays cheap under long waits.
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		v, err := c.converged()
		if err == nil {
			return v, nil
		}
		select {
		case <-deadline.C:
			return nil, fmt.Errorf("live: not converged after %v: %w", timeout, err)
		case <-c.installed:
		case <-tick.C:
		}
	}
}

func (c *Cluster) converged() (*member.View, error) {
	running := c.Running()
	if len(running) == 0 {
		return nil, fmt.Errorf("no processes running")
	}
	var ref *member.View
	for _, p := range running {
		v := c.ViewOf(p)
		if v == nil {
			return nil, fmt.Errorf("%v has no view yet", p)
		}
		if ref == nil {
			ref = v
			continue
		}
		if !ref.Equal(v) {
			return nil, fmt.Errorf("%v differs: %v vs %v", p, ref, v)
		}
	}
	for _, p := range running {
		if !ref.Has(p) {
			return nil, fmt.Errorf("running %v not yet in view %v", p, ref)
		}
	}
	if ref.Size() != len(running) {
		return nil, fmt.Errorf("view %v larger than running set %v", ref, running)
	}
	return ref, nil
}

// Stop shuts the cluster down and waits for every goroutine to exit.
func (c *Cluster) Stop() {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	c.stopped = true
	nodes := make([]*liveNode, 0, len(c.nodes))
	for _, ln := range c.nodes {
		nodes = append(nodes, ln)
	}
	c.nodes = make(map[ids.ProcID]*liveNode)
	c.mu.Unlock()
	// Every node stops before any endpoint goes: an unregistered endpoint
	// hands its peers closed-stream evidence, and a node still running
	// would act on it with a suspicion round in the middle of teardown.
	for _, ln := range nodes {
		close(ln.stop)
		ln.box.close()
	}
	for _, ln := range nodes {
		c.tr.Unregister(ln.id)
	}
	c.tr.Close()
	c.wg.Wait()
}
