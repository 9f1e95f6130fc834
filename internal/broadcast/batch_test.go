package broadcast

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"procgroup/internal/ids"
	"procgroup/internal/member"
)

// timerNode is a fakeNode whose After timers are captured and fired by
// the test — the clock the coalescing windows run on.
type timerNode struct {
	fakeNode
	timers []*fakeTimer
}

type fakeTimer struct {
	d    time.Duration
	fn   func()
	dead bool
}

func (n *timerNode) After(d time.Duration, fn func()) func() {
	t := &fakeTimer{d: d, fn: fn}
	n.timers = append(n.timers, t)
	return func() { t.dead = true }
}

// fire runs every pending timer once (timers armed during firing wait for
// the next call) and reports how many ran.
func (n *timerNode) fire() int {
	pending := n.timers
	n.timers = nil
	ran := 0
	for _, t := range pending {
		if !t.dead {
			t.fn()
			ran++
		}
	}
	return ran
}

// syncAsMember drives b (a non-sequencer) through install + ViewSync so
// the view's order is open. Returns the sequencer's id.
func syncAsMember(b *Broadcaster, n interface{ takeSent() []fakeSend }, ver uint64) ids.ProcID {
	seq := proc("p1")
	b.HandleInstall(member.Version(ver), []ids.ProcID{seq, b.self})
	b.HandleApp(seq, ViewSync{Ver: ver, HasSnap: true})
	n.takeSent()
	return seq
}

func countAcks(sent []fakeSend) (acks int, last uint64) {
	for _, s := range sent {
		if a, ok := s.payload.(AckSeq); ok {
			acks++
			last = a.Seq
		}
	}
	return
}

// TestAckCoalescing pins the ack-storm fix: with AckConfig{Every: B,
// Delay: T}, a member sends at most one cumulative AckSeq per window of B
// delivered entries, and the delay timer flushes a partial window — never
// more than one ack per (B entries | T) window.
func TestAckCoalescing(t *testing.T) {
	fn := &timerNode{fakeNode: fakeNode{id: proc("p2")}}
	b := New(fn, Config{Ack: AckConfig{Every: 4, Delay: 5 * time.Millisecond}})
	seq := syncAsMember(b, fn, 0)
	px := proc("p9")

	// Three deliveries: under the count cap, all suppressed behind the timer.
	for i := uint64(1); i <= 3; i++ {
		b.HandleApp(seq, seqd1(entry(0, i, px, i)))
	}
	if acks, _ := countAcks(fn.takeSent()); acks != 0 {
		t.Fatalf("sent %d acks inside a 3-entry window, want 0 (coalesced)", acks)
	}
	if got := b.stats.AcksSuppressed.Load(); got != 3 {
		t.Fatalf("AcksSuppressed = %d, want 3", got)
	}

	// The 4th delivery completes the window: exactly one cumulative ack.
	b.HandleApp(seq, seqd1(entry(0, 4, px, 4)))
	if acks, last := countAcks(fn.takeSent()); acks != 1 || last != 4 {
		t.Fatalf("window of 4 sent %d acks (last seq %d), want exactly 1 covering 4", acks, last)
	}

	// The completed window's timer was cancelled: firing it sends nothing.
	fn.fire()
	if acks, _ := countAcks(fn.takeSent()); acks != 0 {
		t.Fatalf("cancelled ack timer still sent %d acks", acks)
	}

	// A partial window flushes on the timer — one ack, cumulative.
	b.HandleApp(seq, seqd1(entry(0, 5, px, 5)))
	b.HandleApp(seq, seqd1(entry(0, 6, px, 6)))
	if acks, _ := countAcks(fn.takeSent()); acks != 0 {
		t.Fatal("partial window acked before its timer")
	}
	fn.fire()
	if acks, last := countAcks(fn.takeSent()); acks != 1 || last != 6 {
		t.Fatalf("timer flush sent %d acks (last seq %d), want exactly 1 covering 6", acks, last)
	}
	// An empty window's timer sends nothing.
	fn.fire()
	if acks, _ := countAcks(fn.takeSent()); acks != 0 {
		t.Fatal("ack sent with nothing pending")
	}
}

// pubBatches filters a send capture down to its PubBatch frames.
func pubBatches(sent []fakeSend) []PubBatch {
	var out []PubBatch
	for _, s := range sent {
		if pb, ok := s.payload.(PubBatch); ok {
			out = append(out, pb)
		}
	}
	return out
}

// TestGroupCommitOriginBatching pins the pipeline-paced flush discipline:
// an idle origin ships a proposal immediately (no batching latency on a
// quiet group), proposals arriving while a batch is in flight accumulate
// and leave as ONE PubBatch when the pipeline drains, the entry cap
// flushes early, and the timer is only a fallback — never individual Pubs.
func TestGroupCommitOriginBatching(t *testing.T) {
	fn := &timerNode{fakeNode: fakeNode{id: proc("p2")}}
	b := New(fn, Config{Batch: BatchConfig{MaxEntries: 4, MaxDelay: time.Millisecond}})
	seq := syncAsMember(b, fn, 0)

	// Idle pipeline: the first proposal leaves at once, a batch of one.
	b.Propose([]byte{0}, nil)
	sent := fn.takeSent()
	if len(sent) != 1 {
		t.Fatalf("idle-pipeline proposal sent %d frames, want 1 PubBatch", len(sent))
	}
	pb, ok := sent[0].payload.(PubBatch)
	if !ok || sent[0].to != seq {
		t.Fatalf("idle flush sent %T to %v, want PubBatch to the sequencer", sent[0].payload, sent[0].to)
	}
	if len(pb.Pubs) != 1 || pb.Pubs[0].PubID != 1 || pb.Origin != b.self {
		t.Fatalf("idle-pipeline PubBatch = %+v, want pub 1 from self", pb)
	}

	// While that batch is in flight, new proposals accumulate silently.
	for i := 1; i < 4; i++ {
		b.Propose([]byte{byte(i)}, nil)
	}
	if got := pubBatches(fn.takeSent()); len(got) != 0 {
		t.Fatalf("proposals escaped a busy pipeline: %v", got)
	}

	// The in-flight pub's slot coming home drains the pipeline: the
	// accumulation leaves as one PubBatch in PubID order.
	b.HandleApp(seq, SeqdBatch{Ver: 0, FirstSeq: 1,
		Entries: []SeqdItem{{Origin: b.self, PubID: 1, Body: []byte{0}}}})
	got := pubBatches(fn.takeSent())
	if len(got) != 1 {
		t.Fatalf("pipeline drain sent %d PubBatches, want 1", len(got))
	}
	if len(got[0].Pubs) != 3 {
		t.Fatalf("drained PubBatch carries %d pubs, want 3", len(got[0].Pubs))
	}
	for i, it := range got[0].Pubs {
		if it.PubID != uint64(i+2) {
			t.Fatalf("batch item %d has PubID %d, want %d (PubID order)", i, it.PubID, i+2)
		}
	}

	// Hitting the entry cap flushes immediately, busy pipeline or not.
	for i := 0; i < 4; i++ {
		b.Propose([]byte{byte(i)}, nil)
	}
	got = pubBatches(fn.takeSent())
	if len(got) != 1 || len(got[0].Pubs) != 4 {
		t.Fatalf("cap-triggered flush = %v, want one PubBatch of 4", got)
	}

	// A sub-cap straggler behind a busy pipeline waits for the fallback
	// timer — and leaves as a batch, not a Pub.
	b.Propose([]byte{9}, nil)
	if got := pubBatches(fn.takeSent()); len(got) != 0 {
		t.Fatalf("straggler escaped before the fallback timer: %v", got)
	}
	fn.fire() // MaxDelay
	got = pubBatches(fn.takeSent())
	if len(got) != 1 || len(got[0].Pubs) != 1 {
		t.Fatalf("timer flush = %v, want one PubBatch of 1", got)
	}
	if stats := b.stats.PubBatches.Load(); stats != 4 {
		t.Fatalf("PubBatches = %d, want 4", stats)
	}
}

// syncAsSequencer drives b (the view's coordinator) through install and
// the flush barrier with one other member, so it is the open sequencer.
func syncAsSequencer(t *testing.T, b *Broadcaster, n interface{ takeSent() []fakeSend }, ver uint64, other ids.ProcID) {
	t.Helper()
	b.HandleInstall(member.Version(ver), []ids.ProcID{b.self, other})
	b.HandleApp(other, Flush{Ver: ver, Joining: true})
	for _, s := range n.takeSent() {
		if _, ok := s.payload.(ViewSync); ok {
			return
		}
	}
	t.Fatal("sequencer did not fan out ViewSync after the flush barrier")
}

// liveTimers counts the armed (not cancelled) timers on a timerNode.
func liveTimers(n *timerNode) int {
	live := 0
	for _, t := range n.timers {
		if !t.dead {
			live++
		}
	}
	return live
}

// TestGroupCommitSequencerRangesAndPiggyback: the sequencer assigns one
// contiguous slot range per incoming batch and fans it out as a single
// SeqdBatch. An ack that leaves sequenced entries unstable marks the
// frontier dirty and carries it on the next SeqdBatch (with the timer as
// liveness fallback); the ack that catches the frontier up with everything
// sequenced owes no SeqdBatch, so Stable goes out at once, timer-free.
func TestGroupCommitSequencerRangesAndPiggyback(t *testing.T) {
	fn := &timerNode{fakeNode: fakeNode{id: proc("p1")}}
	b := New(fn, Config{Batch: BatchConfig{MaxEntries: 8, MaxDelay: time.Millisecond}})
	p2 := proc("p2")
	syncAsSequencer(t, b, fn, 0, p2)
	oneBatch := func(what string) SeqdBatch {
		t.Helper()
		sent := fn.takeSent()
		if len(sent) != 1 {
			t.Fatalf("%s sent %d frames, want 1 SeqdBatch", what, len(sent))
		}
		return sent[0].payload.(SeqdBatch)
	}

	items := []PubItem{{PubID: 1, Body: []byte("a")}, {PubID: 2, Body: []byte("b")}, {PubID: 3, Body: []byte("c")}}
	b.HandleApp(p2, PubBatch{Origin: p2, Pubs: items})
	if sb := oneBatch("sequencing a batch"); sb.FirstSeq != 1 || len(sb.Entries) != 3 || sb.Stable != 0 {
		t.Fatalf("SeqdBatch = %+v, want contiguous range [1,4) with stable 0", sb)
	}
	b.HandleApp(p2, PubBatch{Origin: p2, Pubs: []PubItem{{PubID: 4, Body: []byte("d")}}})
	if sb := oneBatch("second batch"); sb.FirstSeq != 4 || sb.Stable != 0 {
		t.Fatalf("second SeqdBatch = %+v, want FirstSeq 4 with stable 0", sb)
	}

	// p2 acks the first range only: the frontier advances, slot 4 is
	// still unstable, so no Stable frame goes out — it is marked for
	// piggyback on the next SeqdBatch, behind the fallback timer.
	b.HandleApp(p2, AckSeq{Ver: 0, Seq: 3})
	if sent := fn.takeSent(); len(sent) != 0 {
		t.Fatalf("frontier advance with entries unstable broadcast %v; it must piggyback", sent)
	}
	if b.stable != 3 || liveTimers(fn) != 1 {
		t.Fatalf("stable = %d with %d timers, want 3 behind one fallback timer", b.stable, liveTimers(fn))
	}
	b.HandleApp(p2, PubBatch{Origin: p2, Pubs: []PubItem{{PubID: 5, Body: []byte("e")}}})
	if sb := oneBatch("third batch"); sb.FirstSeq != 5 || sb.Stable != 3 {
		t.Fatalf("third SeqdBatch = %+v, want FirstSeq 5 carrying stable 3", sb)
	}
	if got := b.stats.StablePiggybacked.Load(); got != 1 {
		t.Fatalf("StablePiggybacked = %d, want 1", got)
	}
	if liveTimers(fn) != 0 {
		t.Fatal("piggyback left its fallback timer armed")
	}

	// With entries unstable and no follow-up batch, the fallback timer
	// broadcasts Stable alone.
	b.HandleApp(p2, AckSeq{Ver: 0, Seq: 4})
	if sent := fn.takeSent(); len(sent) != 0 {
		t.Fatal("stable broadcast before the fallback timer")
	}
	fn.fire()
	sent := fn.takeSent()
	if len(sent) != 1 {
		t.Fatalf("fallback fired %d frames, want 1 Stable", len(sent))
	}
	if st := sent[0].payload.(Stable); st.Seq != 4 {
		t.Fatalf("fallback Stable.Seq = %d, want 4", st.Seq)
	}

	// The ack that catches the frontier up with everything sequenced: no
	// SeqdBatch is owed, so Stable goes out now and nothing is armed.
	b.HandleApp(p2, AckSeq{Ver: 0, Seq: 5})
	sent = fn.takeSent()
	if len(sent) != 1 {
		t.Fatalf("quiescent frontier advance sent %d frames, want 1 Stable", len(sent))
	}
	if st, ok := sent[0].payload.(Stable); !ok || st.Seq != 5 {
		t.Fatalf("quiescent frame = %+v, want Stable 5", sent[0].payload)
	}
	if liveTimers(fn) != 0 || b.stableDirty {
		t.Fatal("quiescent Stable left a timer armed or the frontier dirty")
	}
	if got := b.stats.StableBroadcasts.Load(); got != 2 {
		t.Fatalf("StableBroadcasts = %d, want 2 (one fallback, one quiescent)", got)
	}

	// Duplicate sequencing protection across batches: re-sending the
	// first batch (a resubmission race) sequences nothing.
	before := b.stats.Sequenced.Load()
	b.HandleApp(p2, PubBatch{Origin: p2, Pubs: items})
	if got := b.stats.Sequenced.Load(); got != before {
		t.Fatalf("duplicate batch re-sequenced %d entries", got-before)
	}
}

// TestBatchCapOneIsBatchOfOne pins the degenerate case: MaxEntries ≤ 1 is
// the group-commit path with batches of one — a PubBatch per proposal, an
// AckSeq per SeqdBatch, an immediate Stable when the ack catches the
// frontier up — and the quiescent path arms no timer on any role.
func TestBatchCapOneIsBatchOfOne(t *testing.T) {
	// Origin side: each proposal leaves immediately as its own PubBatch,
	// busy pipeline or not (the entry cap trips every time).
	fn := &timerNode{fakeNode: fakeNode{id: proc("p2")}}
	b := New(fn, Config{})
	seq := syncAsMember(b, fn, 0)
	for i := 1; i <= 3; i++ {
		b.Propose([]byte{byte(i)}, nil)
	}
	sent := fn.takeSent()
	if len(sent) != 3 {
		t.Fatalf("3 proposals sent %d frames, want 3 PubBatches of one", len(sent))
	}
	for i, s := range sent {
		if want := pub1(entry(0, 0, b.self, uint64(i+1))); s.to != seq || !reflect.DeepEqual(s.payload, want) {
			t.Fatalf("frame %d = %+v, want %+v to the sequencer", i, s, want)
		}
	}
	// Delivery side: one AckSeq per SeqdBatch, immediately.
	px := proc("p9")
	b.HandleApp(seq, seqd1(entry(0, 1, px, 1)))
	b.HandleApp(seq, seqd1(entry(0, 2, px, 2)))
	if acks, last := countAcks(fn.takeSent()); acks != 2 || last != 2 {
		t.Fatalf("2 deliveries sent %d acks (last %d), want one per SeqdBatch", acks, last)
	}
	if len(fn.timers) != 0 {
		t.Fatalf("cap-1 origin/member path armed %d timers", len(fn.timers))
	}

	// Sequencer side: PubBatch of one in → SeqdBatch of one out, and the
	// ack that catches the frontier up fans Stable out at once.
	sn := &timerNode{fakeNode: fakeNode{id: proc("p1")}}
	sq := New(sn, Config{Batch: BatchConfig{MaxEntries: 1}})
	p2 := proc("p2")
	syncAsSequencer(t, sq, sn, 0, p2)
	sq.HandleApp(p2, pub1(entry(0, 0, p2, 1)))
	sent = sn.takeSent()
	if len(sent) != 1 || !reflect.DeepEqual(sent[0].payload, seqd1(entry(0, 1, p2, 1))) {
		t.Fatalf("sequencing one pub sent %+v, want one SeqdBatch of one at slot 1", sent)
	}
	sq.HandleApp(p2, AckSeq{Ver: 0, Seq: 1})
	sent = sn.takeSent()
	if len(sent) != 1 {
		t.Fatalf("stability advance sent %d frames, want 1 Stable broadcast", len(sent))
	}
	if st, ok := sent[0].payload.(Stable); !ok || st.Seq != 1 {
		t.Fatalf("frame = %+v, want Stable 1", sent[0].payload)
	}
	// The sequencer's own proposal takes the same path: slotted and
	// fanned out the moment it is made.
	sq.Propose([]byte{1}, nil)
	own := seqd1(entry(0, 2, sq.self, 1))
	own.Stable = 1
	sent = sn.takeSent()
	if len(sent) != 1 || !reflect.DeepEqual(sent[0].payload, own) {
		t.Fatalf("sequencer's own proposal sent %+v, want %+v", sent, own)
	}
	if len(sn.timers) != 0 {
		t.Fatalf("cap-1 sequencer path armed %d timers", len(sn.timers))
	}
	if n := sq.stats.StablePiggybacked.Load(); n != 0 {
		t.Fatalf("quiescent cap-1 sequencer piggybacked %d frontiers, want 0", n)
	}
}

// TestFenceReleasesOnlyAtStability: a read fence registered while the
// processed prefix is unstable holds until the frontier covers it; with
// nothing unstable it releases immediately.
func TestFenceReleasesOnlyAtStability(t *testing.T) {
	fn := &timerNode{fakeNode: fakeNode{id: proc("p2")}}
	b := New(fn, Config{})
	seq := syncAsMember(b, fn, 0)

	released := 0
	b.Fence(func() { released++ })
	if released != 1 {
		t.Fatal("fence over an empty (trivially stable) prefix must release immediately")
	}

	px := proc("p9")
	b.HandleApp(seq, seqd1(entry(0, 1, px, 1)))
	b.Fence(func() { released++ })
	if released != 1 {
		t.Fatal("fence released while its prefix was unstable")
	}
	b.HandleApp(seq, Stable{Ver: 0, Seq: 1})
	if released != 2 {
		t.Fatal("fence not released when the frontier covered its prefix")
	}
}

// TestFenceRetargetsAcrossViewChange: a pending fence survives an
// install, re-targets to the new view's covering prefix, and releases at
// the new view's stability — never before.
func TestFenceRetargetsAcrossViewChange(t *testing.T) {
	fn := &timerNode{fakeNode: fakeNode{id: proc("p2")}}
	b := New(fn, Config{})
	seq := syncAsMember(b, fn, 0)
	px := proc("p9")
	b.HandleApp(seq, seqd1(entry(0, 1, px, 1)))

	released := 0
	b.Fence(func() { released++ })

	members := []ids.ProcID{seq, b.self}
	b.HandleInstall(1, members)
	if released != 0 {
		t.Fatal("fence released by the install itself")
	}
	// The new view re-sequences the entry; sync reopens the order.
	b.HandleApp(seq, ViewSync{Ver: 1, Entries: []Entry{entry(1, 1, px, 1)}})
	if released != 0 {
		t.Fatal("fence released before the re-sequenced prefix was stable")
	}
	b.HandleApp(seq, Stable{Ver: 1, Seq: 1})
	if released != 1 {
		t.Fatal("fence not released at the new view's stability")
	}
}

// --- batched vs unbatched equivalence ---------------------------------------

// simNet wires Broadcasters through in-memory inboxes under a seeded
// scheduler: one message delivery or timer firing at a time, order chosen
// by the rng. Deterministic for a given seed, so the batched and
// unbatched arms replay the identical script.
type simNet struct {
	rng   *rand.Rand
	order []ids.ProcID
	nodes map[ids.ProcID]*simNode
}

type simNode struct {
	net    *simNet
	id     ids.ProcID
	b      *Broadcaster
	inbox  []fakeSend
	timers []*fakeTimer
	dead   bool

	applied []CmdKey
	acked   map[uint64]bool // own pubIDs acked at stability
}

// CmdKey is a command's global identity in the sim.
type CmdKey struct {
	Origin ids.ProcID
	PubID  uint64
}

func (n *simNode) ID() ids.ProcID { return n.id }
func (n *simNode) Send(to ids.ProcID, payload any) {
	if dst, ok := n.net.nodes[to]; ok && !dst.dead {
		dst.inbox = append(dst.inbox, fakeSend{to: n.id, payload: payload}) // to field reused as "from"
	}
}
func (n *simNode) Run(fn func()) { fn() }
func (n *simNode) After(d time.Duration, fn func()) func() {
	t := &fakeTimer{d: d, fn: fn}
	n.timers = append(n.timers, t)
	return func() { t.dead = true }
}

func newSimNet(seed int64, members []ids.ProcID, cfg Config) *simNet {
	net := &simNet{rng: rand.New(rand.NewSource(seed)), order: members, nodes: make(map[ids.ProcID]*simNode)}
	for _, p := range members {
		sn := &simNode{net: net, id: p, acked: make(map[uint64]bool)}
		c := cfg
		c.Deliver = func(m Msg) { sn.applied = append(sn.applied, CmdKey{m.Origin, m.PubID}) }
		sn.b = New(sn, c)
		net.nodes[p] = sn
	}
	return net
}

// step delivers one queued message (random busy node, FIFO within the
// node); with none queued it fires one pending timer. False = quiescent.
func (net *simNet) step() bool {
	busy := make([]*simNode, 0, len(net.order))
	for _, p := range net.order {
		if n := net.nodes[p]; !n.dead && len(n.inbox) > 0 {
			busy = append(busy, n)
		}
	}
	if len(busy) > 0 {
		n := busy[net.rng.Intn(len(busy))]
		m := n.inbox[0]
		n.inbox = n.inbox[1:]
		n.b.HandleApp(m.to, m.payload)
		return true
	}
	for _, p := range net.order {
		n := net.nodes[p]
		if n.dead {
			continue
		}
		for len(n.timers) > 0 {
			t := n.timers[0]
			n.timers = n.timers[1:]
			if !t.dead {
				t.fn()
				return true
			}
		}
	}
	return false
}

func (net *simNet) settle(t *testing.T, limit int) {
	for i := 0; i < limit; i++ {
		if !net.step() {
			return
		}
	}
	t.Fatal("sim did not quiesce")
}

// runGroupCommitSim drives one seeded run: four members bootstrap view 0,
// propose concurrently, the sequencer dies mid-stream, the survivors
// install view 1, and the rest of the load lands there. Returns each
// survivor's applied sequence and the set of acked commands.
func runGroupCommitSim(t *testing.T, seed int64, cfg Config) (map[ids.ProcID][]CmdKey, map[CmdKey]bool) {
	members := []ids.ProcID{proc("p1"), proc("p2"), proc("p3"), proc("p4")}
	survivors := members[1:]
	net := newSimNet(seed, members, cfg)
	// The script rng is separate from the scheduler rng: the scheduler
	// draws differently once frame counts diverge between modes, but the
	// script (who proposes, when) must be identical in both.
	script := rand.New(rand.NewSource(seed ^ 0x5eed))

	for _, p := range members {
		net.nodes[p].b.HandleInstall(0, members)
	}
	propose := func(p ids.ProcID) {
		n := net.nodes[p]
		n.b.Propose([]byte(fmt.Sprintf("%v", p)), func(id uint64, err error) {
			if err == nil {
				n.acked[id] = true
			}
		})
	}
	// First half of the load interleaves with bootstrap and each other.
	for i := 0; i < 20; i++ {
		propose(members[script.Intn(len(members))])
		for s := script.Intn(6); s > 0; s-- {
			net.step()
		}
	}
	// The sequencer dies; survivors install the next view mid-traffic.
	net.nodes[members[0]].dead = true
	for _, p := range survivors {
		net.nodes[p].b.HandleInstall(1, survivors)
	}
	for i := 0; i < 20; i++ {
		propose(survivors[script.Intn(len(survivors))])
		for s := script.Intn(6); s > 0; s-- {
			net.step()
		}
	}
	net.settle(t, 100000)

	applied := make(map[ids.ProcID][]CmdKey)
	acked := make(map[CmdKey]bool)
	for _, p := range survivors {
		applied[p] = net.nodes[p].applied
		for id := range net.nodes[p].acked {
			acked[CmdKey{p, id}] = true
		}
	}
	return applied, acked
}

// TestBatchedMatchesUnbatchedUnderViewChanges is the cross-mode property
// test: for each seed, a batched and an unbatched run of the same script
// (same proposals, same sequencer crash, same scheduler randomness) must
// (a) keep every survivor's applied sequence identical within the run,
// (b) respect per-origin FIFO with no duplicates, (c) lose no acked
// command, and (d) deliver the same survivor-origin command set in both
// modes — batching may interleave origins differently at the sequencer,
// but it must not add, drop, or reorder any origin's own commands.
func TestBatchedMatchesUnbatchedUnderViewChanges(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		unb, unbAcked := runGroupCommitSim(t, seed, Config{})
		bat, batAcked := runGroupCommitSim(t, seed, Config{
			Batch: BatchConfig{MaxEntries: 4, MaxDelay: time.Millisecond},
			Ack:   AckConfig{Every: 4, Delay: time.Millisecond},
		})

		for name, run := range map[string]map[ids.ProcID][]CmdKey{"unbatched": unb, "batched": bat} {
			var ref []CmdKey
			var refP ids.ProcID
			first := true
			for p, seq := range run {
				// (b) exactly-once + per-origin FIFO.
				seen := make(map[CmdKey]bool)
				lastPub := make(map[ids.ProcID]uint64)
				for _, k := range seq {
					if seen[k] {
						t.Fatalf("seed %d %s: %v applied %v twice", seed, name, p, k)
					}
					seen[k] = true
					if k.PubID <= lastPub[k.Origin] {
						t.Fatalf("seed %d %s: %v broke origin FIFO at %v", seed, name, p, k)
					}
					lastPub[k.Origin] = k.PubID
				}
				// (a) all survivors agree on the whole order.
				if first {
					ref, refP, first = seq, p, false
				} else if !reflect.DeepEqual(ref, seq) {
					t.Fatalf("seed %d %s: survivors %v and %v applied different orders:\n%v\n%v",
						seed, name, refP, p, ref, seq)
				}
			}
		}

		// (c) zero acked loss, in each mode.
		for name, pair := range map[string]struct {
			acked map[CmdKey]bool
			run   map[ids.ProcID][]CmdKey
		}{"unbatched": {unbAcked, unb}, "batched": {batAcked, bat}} {
			for p, seq := range pair.run {
				have := make(map[CmdKey]bool, len(seq))
				for _, k := range seq {
					have[k] = true
				}
				for k := range pair.acked {
					if !have[k] {
						t.Fatalf("seed %d %s: acked %v missing from %v's applied order", seed, name, k, p)
					}
				}
			}
		}

		// (d) identical survivor-origin delivery sets across modes.
		setOf := func(run map[ids.ProcID][]CmdKey) map[CmdKey]bool {
			out := make(map[CmdKey]bool)
			for _, seq := range run {
				for _, k := range seq {
					if k.Origin != proc("p1") {
						out[k] = true
					}
				}
			}
			return out
		}
		if a, b := setOf(unb), setOf(bat); !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: survivor-origin delivery sets differ between modes:\nunbatched %v\nbatched  %v", seed, a, b)
		}
	}
}

// TestGroupCommitLivenessAfterSequencerCrash is the liveness property:
// once the network quiesces (no queued frames, no pending timers), every
// proposal made by a survivor must have completed — the pipeline-paced
// flush must never strand queued pubs behind a pipeline slot that a view
// change emptied. Bursty load (many proposals between scheduler steps)
// keeps the origin pipelines deep across the crash, which is exactly
// where a pacing leak would deadlock the real system. Cap 1 runs the same
// pacing and timers, so it is the second input.
func TestGroupCommitLivenessAfterSequencerCrash(t *testing.T) {
	for _, cfg := range []Config{
		{Batch: BatchConfig{MaxEntries: 1}},
		{
			Batch: BatchConfig{MaxEntries: 8, MaxDelay: time.Millisecond},
			Ack:   AckConfig{Every: 8, Delay: time.Millisecond},
		},
	} {
		for seed := int64(0); seed < 300; seed++ {
			groupCommitLivenessSeed(t, seed, cfg)
		}
	}
}

func groupCommitLivenessSeed(t *testing.T, seed int64, cfg Config) {
	members := []ids.ProcID{proc("p1"), proc("p2"), proc("p3"), proc("p4")}
	survivors := members[1:]
	net := newSimNet(seed, members, cfg)
	script := rand.New(rand.NewSource(seed ^ 0x11fe))
	for _, p := range members {
		net.nodes[p].b.HandleInstall(0, members)
	}
	proposed := make(map[ids.ProcID]int)
	propose := func(p ids.ProcID) {
		proposed[p]++
		n := net.nodes[p]
		n.b.Propose([]byte{byte(proposed[p])}, func(id uint64, err error) {
			if err == nil {
				n.acked[id] = true
			}
		})
	}
	for i := 0; i < 40; i++ {
		propose(members[script.Intn(len(members))])
		if script.Intn(3) == 0 {
			for s := script.Intn(8); s > 0; s-- {
				net.step()
			}
		}
	}
	net.nodes[members[0]].dead = true
	for _, p := range survivors {
		net.nodes[p].b.HandleInstall(1, survivors)
	}
	for i := 0; i < 40; i++ {
		propose(survivors[script.Intn(len(survivors))])
		if script.Intn(3) == 0 {
			for s := script.Intn(8); s > 0; s-- {
				net.step()
			}
		}
	}
	net.settle(t, 200000)
	for _, p := range survivors {
		n := net.nodes[p]
		if len(n.acked) != proposed[p] {
			t.Fatalf("cap %d seed %d: %v quiesced with %d/%d proposals acked",
				cfg.Batch.MaxEntries, seed, p, len(n.acked), proposed[p])
		}
	}
}
