package core

// Coordinator (Mgr) role: the two-phase update algorithm of Fig. 8, with
// §3.1's compression of successive rounds. The coordinator holds two queues
// — Recovered(Mgr) and Faulty(Mgr) — and, while either is non-empty, runs
// rounds of: invite every view member, await each member's OK or its
// suspicion, commit, and piggyback the next operation on the commit.

import (
	"fmt"

	"procgroup/internal/ids"
	"procgroup/internal/member"
)

// nextOp picks the operation a new round would perform, drawing joins
// before exclusions as Fig. 8 does. exclude lists targets that must be
// skipped (reconfiguration uses it to avoid re-proposing its own RL).
// It never mutates the queues: entries leave Faulty/Recovered only when the
// operation commits. Adds additionally pass the environment's readmission
// governor, if any: a vetoed joiner is skipped this scan — staying in
// Recovered(Mgr) for a later one — and never blocks the exclusions
// queued behind it.
func (n *Node) nextOp(exclude ids.Set) member.Op {
	gov, governed := n.env.(ReadmissionGovernor)
	for _, r := range n.recovered.Sorted() {
		if !n.view.Has(r) && (exclude == nil || !exclude.Has(r)) {
			if governed && !gov.AdmitJoiner(r) {
				continue
			}
			return member.Add(r)
		}
	}
	for _, f := range n.faulty.Sorted() {
		if n.view.Has(f) && (exclude == nil || !exclude.Has(f)) {
			return member.Remove(f)
		}
	}
	return member.NilOp
}

// maybeStartRound begins a fresh two-phase round when the coordinator is
// idle and has pending work. The fresh round always broadcasts an explicit
// invitation; compressed continuations are created by commitRound instead.
func (n *Node) maybeStartRound() {
	if n.round != nil || n.reconf != nil {
		return
	}
	op := n.nextOp(nil)
	if op.IsNil() {
		return
	}
	n.round = &updateRound{op: op, ver: n.view.Version() + 1, okFrom: ids.NewSet()}
	n.broadcastInvite()
	n.checkRound()
}

// broadcastInvite sends Invite(op) to every view member except ourselves —
// including the target, which must quit if it is alive (Fig. 2: "if
// p = proc-id then quit_p"), and including suspected members, whose
// response the await clause replaces with faulty_Mgr(p).
func (n *Node) broadcastInvite() {
	inv := Invite{Op: n.round.op, Ver: n.round.ver}
	for _, m := range n.view.Members() {
		if m != n.id {
			n.env.Send(m, inv)
		}
	}
}

// handleOK processes an outer process's acknowledgement, for either an
// explicit invitation or a commit-borne contingent one.
func (n *Node) handleOK(from ids.ProcID, m OK) {
	if n.round == nil || m.Ver != n.round.ver || !n.view.Has(from) {
		return
	}
	n.round.okFrom.Add(from)
	n.step()
}

// checkRound fires the commit once every view member is accounted for:
// Fig. 8's "∀p ∈ Memb(Mgr). await (OK(p) or faulty_Mgr(p))", followed by
// the majority gate of the final algorithm.
func (n *Node) checkRound() {
	if n.round == nil {
		return
	}
	for _, m := range n.view.Members() {
		if m == n.id {
			continue
		}
		if !n.round.okFrom.Has(m) && !n.isolated.Has(m) {
			return
		}
	}
	if n.majorityGate() && 1+n.round.okFrom.Len() < n.view.Majority() {
		n.quit("coordinator lost majority")
		return
	}
	n.commitRound()
}

// majorityGate reports whether commits require a majority of OKs: always in
// the final algorithm, and always after this node has lived through a
// reconfiguration (§4.5).
func (n *Node) majorityGate() bool { return n.cfg.MajorityCheck || n.everReconfigured }

// commitRound applies the round's operation, broadcasts the commit with its
// contingencies, and — if more work is queued — chains the next round,
// compressed onto the commit when the configuration allows.
func (n *Node) commitRound() {
	op, ver := n.round.op, n.round.ver
	n.round = nil
	if err := n.install(member.Seq{op}); err != nil {
		panic(fmt.Sprintf("core: coordinator %v cannot install own commit: %v", n.id, err))
	}

	next := n.nextOp(nil)
	commit := Commit{
		Op:        op,
		Ver:       ver,
		Faulty:    n.inViewFaulty(),
		Recovered: n.recovered.Sorted(),
	}
	if !next.IsNil() && n.cfg.Compression {
		commit.Next = next
		commit.NextVer = ver + 1
	}
	for _, m := range n.view.Members() {
		if m != n.id {
			n.env.Send(m, commit)
		}
	}
	if op.Kind == member.OpAdd {
		n.sendStateTransfer(op.Target, next, ver+1)
	}
	if next.IsNil() {
		n.next = nil
		return
	}
	n.round = &updateRound{op: next, ver: ver + 1, okFrom: ids.NewSet(), contingent: n.cfg.Compression}
	if !n.cfg.Compression {
		n.broadcastInvite()
	}
	// The contingent target may already be the only unaccounted member.
	n.checkRound()
}

// inViewFaulty returns Faulty(Mgr) restricted to current members — the F2
// gossip the commit carries.
func (n *Node) inViewFaulty() []ids.ProcID {
	var out []ids.ProcID
	for _, f := range n.faulty.Sorted() {
		if n.view.Has(f) {
			out = append(out, f)
		}
	}
	return out
}

// sendStateTransfer hands a just-admitted joiner the group state. When the
// add's commit carried a contingent next operation and rounds are
// compressed, the joiner is a full member of that round and must
// acknowledge it, so the transfer carries the pending operation too.
func (n *Node) sendStateTransfer(joiner ids.ProcID, next member.Op, nextVer member.Version) {
	st := StateTransfer{
		Members: n.view.Members(),
		Ver:     n.view.Version(),
		Seq:     n.seq.Clone(),
		Coord:   n.id,
	}
	if !next.IsNil() && n.cfg.Compression {
		st.Next = next
		st.NextVer = nextVer
	}
	n.env.Send(joiner, st)
}

// handleFaultyReport is F2 gossip: the sender believed Suspect faulty when
// it sent the report, so we adopt the belief; if we are the coordinator
// this enqueues the exclusion (GMP-5). A report is point-to-point
// knowledge, so under a partial monitoring topology the adopted suspicion
// is gossiped onward in digests, to processes that do not monitor the
// suspect themselves.
func (n *Node) handleFaultyReport(from ids.ProcID, m FaultyReport) {
	if n.applyFaulty(m.Suspect) {
		n.disseminate(m.Suspect, 0)
		n.reportSuspicions()
	}
	n.step()
}

// handleJoinRequest sponsors a joiner: the coordinator queues the add; any
// other member records the joiner as operating and forwards the request
// (§7: Mgr initiates the join "when it becomes aware of p's desire to join
// the group").
func (n *Node) handleJoinRequest(from ids.ProcID, m JoinRequest) {
	if m.Joiner.IsNil() || m.Joiner == n.id || n.view.Has(m.Joiner) || n.isolated.Has(m.Joiner) {
		return
	}
	n.applyOperating(m.Joiner)
	n.reportSuspicions() // forwards the sponsorship to the coordinator
	n.step()
}
