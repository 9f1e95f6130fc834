package core

import (
	"fmt"

	"procgroup/internal/event"
	"procgroup/internal/ids"
	"procgroup/internal/member"
)

// Node is one process running the protocol.
type Node struct {
	id  ids.ProcID
	env Env
	cfg Config

	// Liveness.
	alive      bool
	quitReason string

	// Membership state (§2.2, §4.4).
	view *member.View // Memb(p); nil until bootstrapped or state-transferred
	seq  member.Seq   // seq(p): committed operations, in order
	next member.Next  // next(p): expected future commits

	// Belief state (§2.2). faulty is Faulty(p): suspected processes not
	// yet removed from the view. isolated implements property S1 — once
	// a process appears here, every message from it is discarded forever.
	// recovered is Recovered(p): processes waiting to join.
	faulty    ids.Set
	isolated  ids.Set
	recovered ids.Set

	// mgr is this node's belief about the current coordinator. It starts
	// as the most senior view member and is reassigned by reconfiguration
	// commits (Fig. 10's "Mgr ← r").
	mgr ids.ProcID

	// reported tracks which suspicions we already forwarded to the
	// current coordinator, so coordinator changes re-trigger GMP-5
	// reports without duplication. sponsored does the same for pending
	// joiners (Prop. 6.4: requests made to a failed Mgr are not lost).
	reported  ids.Set
	sponsored ids.Set

	// Coordinator role.
	round            *updateRound
	everReconfigured bool

	// Outer role: the operation we have acknowledged and whose commit we
	// await.
	pending *pendingUpdate

	// Reconfiguration initiator role.
	reconf *reconfState
	// awaitingReconf is the initiator whose Propose/Commit we expect
	// after answering its interrogation (ids.Nil when none).
	awaitingReconf ids.ProcID

	// Initiation timeout (Table 1). timerGen invalidates stale timers.
	timerGen    int
	timerArmed  bool
	cancelTimer func()

	// Await fallback (Config.AwaitWait). awaitKey identifies which await
	// the armed timer covers, so a new round or phase restarts the clock.
	awaitGen    int
	awaitArmed  bool
	awaitKey    awaitKey
	cancelAwait func()

	// Future-view message buffer (§3) and its re-entrancy guard.
	held     []heldMessage
	draining bool

	// Joiner mode: set between StartJoin and the StateTransfer.
	joining bool
}

// updateRound is the coordinator's in-flight two-phase round.
type updateRound struct {
	op         member.Op
	ver        member.Version // version committing op produces
	okFrom     ids.Set        // outer processes that acknowledged
	contingent bool           // invitation rode on the previous commit
}

// pendingUpdate is what an outer process has acknowledged.
type pendingUpdate struct {
	op  member.Op
	ver member.Version
}

// awaitKey names one await instance: the version a round would commit, or
// the current view version plus phase for a reconfiguration.
type awaitKey struct {
	ver   member.Version
	phase int
}

// reconfState is the initiator's three-phase progress.
type reconfState struct {
	phase     int // 1 = interrogation, 2 = proposal
	responses map[ids.ProcID]InterrogateOK
	phase2OK  ids.Set
	rl        member.Seq
	ver       member.Version
	invis     member.Op
}

// New builds a node. It is inert until Bootstrap or StartJoin.
func New(id ids.ProcID, env Env, cfg Config) *Node {
	return &Node{
		id:        id,
		env:       env,
		cfg:       cfg,
		alive:     true,
		faulty:    ids.NewSet(),
		isolated:  ids.NewSet(),
		recovered: ids.NewSet(),
		reported:  ids.NewSet(),
		sponsored: ids.NewSet(),
	}
}

// Bootstrap installs the commonly-known initial membership (GMP-0). Every
// initial member calls it with the same seniority-ordered list.
func (n *Node) Bootstrap(initial []ids.ProcID) {
	n.view = member.NewView(initial)
	n.mgr = n.view.Mgr()
	n.env.RecordInstall(n.view.Version(), n.view.Members())
}

// maxJoinAttempts bounds a joiner's retries before it gives up; the group
// may be dead or unreachable, and an abandoned joiner must terminate.
const maxJoinAttempts = 10

// StartJoin puts the node in joiner mode and asks contact (any group
// member) to sponsor it. The node stays inert until the group's
// coordinator admits it and sends a StateTransfer; if the request is lost
// (the sponsor or coordinator died first), it retries every
// Config.JoinRetry ticks, up to maxJoinAttempts.
func (n *Node) StartJoin(contact ids.ProcID) {
	n.joining = true
	n.sendJoin(contact, 1)
}

func (n *Node) sendJoin(contact ids.ProcID, attempt int) {
	if !n.alive || !n.joining {
		return
	}
	if attempt > maxJoinAttempts {
		n.quit("join abandoned: no response from the group")
		return
	}
	n.env.Send(contact, JoinRequest{Joiner: n.id})
	if n.cfg.JoinRetry > 0 {
		n.env.After(n.cfg.JoinRetry, func() { n.sendJoin(contact, attempt+1) })
	}
}

// --- Introspection (used by the harness, checker and public API) ---------

// ID returns the node's process identifier.
func (n *Node) ID() ids.ProcID { return n.id }

// Alive reports whether the node is still executing.
func (n *Node) Alive() bool { return n.alive }

// QuitReason explains a voluntary halt ("" while alive).
func (n *Node) QuitReason() string { return n.quitReason }

// View returns a copy of the current local view (nil before bootstrap).
func (n *Node) View() *member.View {
	if n.view == nil {
		return nil
	}
	return n.view.Clone()
}

// SeqLog returns a copy of seq(p).
func (n *Node) SeqLog() member.Seq { return n.seq.Clone() }

// NextList returns a copy of next(p).
func (n *Node) NextList() member.Next { return n.next.Clone() }

// Coordinator returns this node's belief about the current Mgr.
func (n *Node) Coordinator() ids.ProcID { return n.mgr }

// IsCoordinator reports whether this node believes itself Mgr.
func (n *Node) IsCoordinator() bool { return n.alive && n.view != nil && n.mgr == n.id }

// Suspects returns the current Faulty(p) set (suspected, not yet removed).
func (n *Node) Suspects() []ids.ProcID { return n.faulty.Sorted() }

// Acknowledged reports the operation this outer process has OK'd and whose
// commit it awaits (ok == false when idle). Debugging/monitoring surface.
func (n *Node) Acknowledged() (op member.Op, ver member.Version, ok bool) {
	if n.pending == nil {
		return member.NilOp, 0, false
	}
	return n.pending.op, n.pending.ver, true
}

// --- Inputs ---------------------------------------------------------------

// Suspect is the F1 failure-detection input: execute faulty_p(q). The same
// entry point serves F2 gossip (via applyFaulty) and the Table 1 initiation
// timeout.
func (n *Node) Suspect(q ids.ProcID) { n.SuspectWithLevel(q, 0) }

// SuspectWithLevel is Suspect for environments whose failure detector
// grades its output (§2.2 leaves the mechanism open; the live runtime's
// accrual detector produces a φ value): level travels onto the recorded
// Faulty event so traces show how confident the detector was when the
// suspicion fired. Level 0 is an ungraded suspicion.
func (n *Node) SuspectWithLevel(q ids.ProcID, level float64) {
	if !n.alive || n.view == nil || q == n.id {
		return
	}
	if !n.applyFaultyLevel(q, level) {
		return
	}
	// A detector-sourced suspicion is point-to-point knowledge: under a
	// partial topology nobody else may have observed it, so a gossiping
	// environment batches it into digests.
	n.disseminate(q, level)
	// GMP-5: ask the coordinator to start the removal algorithm — unless
	// the coordinator itself is the suspect (reconfiguration handles it).
	n.reportSuspicions()
	n.step()
}

// GossipSuspectWithLevel is the entry point for a suspicion learned from
// a batched digest (SuspicionGossiper environments). It adopts the belief
// like F2 broadcast gossip — no FaultyReport to the coordinator, because
// the digest flood that delivered it here is reaching the coordinator by
// the same mechanism — and re-disseminates so the flood hops onward
// through the monitoring topology.
func (n *Node) GossipSuspectWithLevel(q ids.ProcID, level float64) {
	if !n.alive || n.view == nil || q == n.id {
		return
	}
	if !n.applyFaultyLevel(q, level) {
		return
	}
	n.reported.Add(q)
	n.disseminate(q, level)
	n.step()
}

// disseminate spreads one point-to-point-learned suspicion into the
// environment's digest batch when digest gossip is active.
func (n *Node) disseminate(q ids.ProcID, level float64) {
	if g, ok := n.env.(SuspicionGossiper); ok && g.GossipActive() {
		g.GossipSuspicion(q, level)
	}
}

// applyFaulty records faulty_p(q) with no detector grade behind it (F2
// gossip, commit-carried removals, the initiation timeout).
func (n *Node) applyFaulty(q ids.ProcID) bool { return n.applyFaultyLevel(q, 0) }

// applyFaultyLevel records faulty_p(q): S1 isolation plus, if q is a view
// member, entry into Faulty(p). Returns false if q was already isolated.
func (n *Node) applyFaultyLevel(q ids.ProcID, level float64) bool {
	if q == n.id || n.isolated.Has(q) {
		return false
	}
	relevant := n.view.Has(q) || n.recovered.Has(q)
	if !relevant {
		// Suspicion of a process we never admitted: isolate silently.
		n.isolated.Add(q)
		return false
	}
	n.isolated.Add(q)
	n.recovered.Remove(q)
	if n.view.Has(q) {
		n.faulty.Add(q)
	}
	if lr, ok := n.env.(LevelRecorder); ok && level != 0 {
		lr.RecordLevel(event.Faulty, q, level)
	} else {
		n.env.Record(event.Faulty, q)
	}
	if q == n.awaitingReconf {
		// Fig. 10: "await (Propose … ) or faulty_p(r); if faulty_p(r)
		// then exit the protocol."
		n.awaitingReconf = ids.Nil
	}
	return true
}

// applyOperating records operating_p(q), the join-side belief (§7.1).
func (n *Node) applyOperating(q ids.ProcID) {
	if q == n.id || n.isolated.Has(q) || n.view.Has(q) || n.recovered.Has(q) {
		return
	}
	n.recovered.Add(q)
	n.env.Record(event.Operating, q)
}

// reportSuspicions forwards unreported suspicions and unsponsored pending
// joiners to the coordinator (GMP-5 and its recovery analogue). Reports are
// re-sent to a new coordinator after reconfiguration.
func (n *Node) reportSuspicions() {
	if n.mgr == n.id || n.isolated.Has(n.mgr) {
		// Digest dissemination travels at beacon cadence along monitor
		// edges, which is the wrong speed for the one latency-critical
		// hop: the expected initiator learning the coordinator is dead.
		// Keep that hop point-to-point — O(1) frames, and only from
		// nodes that learned the suspicion first-hand (digest-learned
		// beliefs arrive via GossipSuspectWithLevel, which marks them
		// reported), so it stays O(monitors), not O(n).
		if g, ok := n.env.(SuspicionGossiper); ok && g.GossipActive() {
			if heir := n.expectedInitiator(); heir != n.id && !heir.IsNil() {
				for _, q := range n.faulty.Sorted() {
					if n.reported.Has(q) || !n.view.Has(q) {
						continue
					}
					n.reported.Add(q)
					n.env.Send(heir, FaultyReport{Suspect: q})
				}
			}
		}
		return
	}
	for _, q := range n.faulty.Sorted() {
		if n.reported.Has(q) || !n.view.Has(q) {
			continue
		}
		n.reported.Add(q)
		n.env.Send(n.mgr, FaultyReport{Suspect: q})
	}
	for _, j := range n.recovered.Sorted() {
		if n.sponsored.Has(j) || n.view.Has(j) {
			continue
		}
		n.sponsored.Add(j)
		n.env.Send(n.mgr, JoinRequest{Joiner: j})
	}
}

// Deliver is the network's entry point for an incoming message.
func (n *Node) Deliver(from ids.ProcID, payload any) {
	if !n.alive {
		return
	}
	// Property S1: never receive from a process believed faulty.
	if n.isolated.Has(from) {
		return
	}
	if n.joining || n.view == nil {
		if st, ok := payload.(StateTransfer); ok {
			n.handleStateTransfer(from, st)
		}
		return
	}
	// §2.2 case 1: a sender outside our local view is treated as faulty;
	// its messages must not influence us. Join traffic is the exception —
	// a joiner is outside every view by definition.
	if !n.view.Has(from) {
		if jr, ok := payload.(JoinRequest); ok && jr.Joiner == from {
			n.handleJoinRequest(from, jr)
			return
		}
		if !n.recovered.Has(from) {
			n.isolated.Add(from)
		}
		return
	}

	if n.bufferIfFuture(from, payload) {
		return
	}

	switch m := payload.(type) {
	case Invite:
		n.handleInvite(from, m)
	case OK:
		n.handleOK(from, m)
	case Commit:
		n.handleCommit(from, m)
	case Interrogate:
		n.handleInterrogate(from)
	case InterrogateOK:
		n.handleInterrogateOK(from, m)
	case Propose:
		n.handlePropose(from, m)
	case ProposeOK:
		n.handleProposeOK(from, m)
	case ReconfCommit:
		n.handleReconfCommit(from, m)
	case FaultyReport:
		n.handleFaultyReport(from, m)
	case JoinRequest:
		n.handleJoinRequest(from, m)
	case StateTransfer:
		// Already installed; duplicate transfers are ignored.
	default:
		panic(fmt.Sprintf("core: %v received unknown payload %T", n.id, payload))
	}

	// Replay buffered future-view messages that the handler's installs
	// have made current; only the outermost delivery drains.
	if !n.draining && n.alive && n.view != nil && len(n.held) > 0 {
		n.draining = true
		for {
			before, ver := len(n.held), n.view.Version()
			n.drainHeld()
			if !n.alive || len(n.held) == 0 ||
				(len(n.held) == before && n.view.Version() == ver) {
				break
			}
		}
		n.draining = false
	}
}

// --- Lifecycle ------------------------------------------------------------

// quit executes quit_p: the process halts permanently (§2.1). The
// environment propagates it like a crash so the rest of the group's failure
// detection observes it.
func (n *Node) quit(reason string) {
	if !n.alive {
		return
	}
	n.alive = false
	n.quitReason = reason
	n.disarmTimer()
	n.disarmAwaitTimer()
	n.env.Record(event.Quit, ids.Nil)
	n.env.Quit()
}

// install applies committed operations, records the transition, and drains
// role bookkeeping tied to the old view.
func (n *Node) install(ops member.Seq) error {
	for _, op := range ops {
		if err := n.view.Apply(op); err != nil {
			return fmt.Errorf("core: %v installing %v: %w", n.id, op, err)
		}
		n.seq = append(n.seq, op)
		switch op.Kind {
		case member.OpRemove:
			n.faulty.Remove(op.Target)
			n.env.Record(event.Remove, op.Target)
		case member.OpAdd:
			n.recovered.Remove(op.Target)
			n.env.Record(event.Add, op.Target)
			// A suspicion that landed while the add was in flight must
			// not be lost (GMP-5): the joiner enters the view already
			// marked faulty and the next round excludes it.
			if n.isolated.Has(op.Target) {
				n.faulty.Add(op.Target)
			}
		}
	}
	if len(ops) > 0 {
		n.env.RecordInstall(n.view.Version(), n.view.Members())
	}
	return nil
}

// step runs the node's enabled actions after any state change: coordinator
// round progress, reconfiguration progress, initiation, timer upkeep.
func (n *Node) step() {
	if !n.alive || n.view == nil {
		return
	}
	// The await fallback is maintained on the way out so a round or
	// phase entered during this step arms its timer immediately.
	defer func() {
		if n.alive {
			n.maintainAwaitTimer()
		}
	}()
	if n.reconf != nil {
		n.checkReconfPhase()
		return
	}
	if n.isCoordinatorRole() {
		n.checkRound()
		n.maybeStartRound()
		return
	}
	n.maybeInitiate()
	n.maintainTimer()
}

// isCoordinatorRole reports whether this node currently drives updates.
func (n *Node) isCoordinatorRole() bool { return n.mgr == n.id }

// Poke re-runs the enabled-actions scan. Protocol handlers step the node
// themselves; Poke exists for environments whose optional extensions gate
// actions on the passage of time — a readmission governor whose token
// bucket has refilled calls it so a deferred join is re-considered
// without waiting for the next protocol message. Harmless when nothing
// has changed.
func (n *Node) Poke() { n.step() }

// expectedInitiator returns the most senior view member this node does
// not believe faulty — the process that will (by rank) drive the next
// reconfiguration, per Table 1's "the most senior operational process
// initiates" reading. ids.Nil when every member is suspected.
func (n *Node) expectedInitiator() ids.ProcID {
	for _, m := range n.view.Members() {
		if !n.isolated.Has(m) {
			return m
		}
	}
	return ids.Nil
}

// higherRankedUnsuspected returns the view members outranking us that we do
// not (yet) believe faulty, most senior first.
func (n *Node) higherRankedUnsuspected() []ids.ProcID {
	var out []ids.ProcID
	for _, q := range n.view.HigherRanked(n.id) {
		if !n.isolated.Has(q) {
			out = append(out, q)
		}
	}
	return out
}

// hiFaultyFull reports the initiation condition of §4.2: HiFaulty(p) holds
// every higher-ranked member of the local view.
func (n *Node) hiFaultyFull() bool {
	hr := n.view.HigherRanked(n.id)
	if len(hr) == 0 {
		return false
	}
	for _, q := range hr {
		if !n.isolated.Has(q) {
			return false
		}
	}
	return true
}

// --- Initiation timeout (Table 1) -----------------------------------------

// maintainTimer arms the Table 1 escalation clock whenever we suspect the
// coordinator, are not in (or awaiting) a reconfiguration, and some
// higher-ranked process remains unsuspected — i.e. we expect somebody else
// to initiate.
func (n *Node) maintainTimer() {
	want := n.cfg.ReconfigWait > 0 &&
		n.isolated.Has(n.mgr) &&
		n.view.Has(n.id) &&
		n.awaitingReconf.IsNil() &&
		n.reconf == nil &&
		len(n.higherRankedUnsuspected()) > 0
	if want == n.timerArmed {
		return
	}
	if !want {
		n.disarmTimer()
		return
	}
	n.timerArmed = true
	n.timerGen++
	gen := n.timerGen
	n.cancelTimer = n.env.After(n.cfg.ReconfigWait, func() { n.timerFired(gen) })
}

func (n *Node) disarmTimer() {
	if n.timerArmed {
		n.timerArmed = false
		n.timerGen++
		if n.cancelTimer != nil {
			n.cancelTimer()
			n.cancelTimer = nil
		}
	}
}

// --- Await fallback (Config.AwaitWait) ------------------------------------

// maintainAwaitTimer arms the partial-topology await fallback whenever
// this node is awaiting responses — a coordinator round or a
// reconfiguration phase — and restarts the clock when the await changes
// identity (a new round, the next phase). See Config.AwaitWait.
func (n *Node) maintainAwaitTimer() {
	var key awaitKey
	want := n.cfg.AwaitWait > 0
	switch {
	case !want:
	case n.reconf != nil:
		key = awaitKey{ver: n.view.Version(), phase: n.reconf.phase}
	case n.round != nil:
		key = awaitKey{ver: n.round.ver}
	default:
		want = false
	}
	if !want {
		n.disarmAwaitTimer()
		return
	}
	if n.awaitArmed && key == n.awaitKey {
		return
	}
	n.disarmAwaitTimer()
	n.awaitArmed, n.awaitKey = true, key
	n.awaitGen++
	gen := n.awaitGen
	n.cancelAwait = n.env.After(n.cfg.AwaitWait, func() { n.awaitFired(gen) })
}

func (n *Node) disarmAwaitTimer() {
	if n.awaitArmed {
		n.awaitArmed = false
		n.awaitGen++
		if n.cancelAwait != nil {
			n.cancelAwait()
			n.cancelAwait = nil
		}
	}
}

// awaitFired resolves a wedged await: every member whose response is
// still outstanding is surmised faulty — this node's own F1 input for
// members it does not monitor, exactly as legal as any other wrong
// detection (§2.2). The surmise is gossiped like a detector suspicion so
// the rest of a partial topology learns it too.
func (n *Node) awaitFired(gen int) {
	if !n.alive || gen != n.awaitGen || n.view == nil {
		return
	}
	n.awaitArmed = false
	for _, m := range n.unaccounted() {
		if n.applyFaulty(m) {
			n.disseminate(m, 0)
		}
	}
	n.reportSuspicions()
	n.step()
}

// unaccounted lists the view members the current await is still waiting
// on: no response yet, and not already believed faulty.
func (n *Node) unaccounted() []ids.ProcID {
	var out []ids.ProcID
	answered := func(m ids.ProcID) bool { return false }
	switch {
	case n.reconf != nil && n.reconf.phase == 1:
		answered = func(m ids.ProcID) bool { _, ok := n.reconf.responses[m]; return ok }
	case n.reconf != nil && n.reconf.phase == 2:
		answered = n.reconf.phase2OK.Has
	case n.round != nil:
		answered = n.round.okFrom.Has
	default:
		return nil
	}
	for _, m := range n.view.Members() {
		if m != n.id && !answered(m) && !n.isolated.Has(m) {
			out = append(out, m)
		}
	}
	return out
}

// timerFired escalates: the most senior unsuspected process "should" have
// initiated by now, so we surmise faulty(p) of it (Table 1, scenario 2) and
// either expect the next candidate or initiate ourselves.
func (n *Node) timerFired(gen int) {
	if !n.alive || gen != n.timerGen || n.view == nil {
		return
	}
	n.timerArmed = false
	candidates := n.higherRankedUnsuspected()
	if len(candidates) == 0 || !n.isolated.Has(n.mgr) {
		n.step()
		return
	}
	if n.applyFaulty(candidates[0]) {
		// A Table 1 surmise is local knowledge like a detector firing:
		// disseminate it under a partial topology.
		n.disseminate(candidates[0], 0)
	}
	n.reportSuspicions()
	n.step()
}
