package core_test

// The readmission-governor seam (core.ReadmissionGovernor) unit-tested at
// the protocol layer: a vetoed joiner stays queued without blocking other
// membership work, and a later grant plus Poke admits it. The simulator's
// environments implement no governor, so every pinned behavior elsewhere
// in this package is untouched.

import (
	"testing"

	"procgroup/internal/core"
	"procgroup/internal/event"
	"procgroup/internal/ids"
	"procgroup/internal/member"
)

// govEnv is plainEnv's shape plus a switchable admission verdict.
type govEnv struct {
	bus   *gossipBus
	id    ids.ProcID
	admit func(q ids.ProcID) bool
}

func (e *govEnv) Send(to ids.ProcID, payload any) {
	e.bus.queue = append(e.bus.queue, busMsg{e.id, to, payload})
}
func (e *govEnv) After(int64, func()) (cancel func())        { return func() {} }
func (e *govEnv) Quit()                                      { e.bus.dead.Add(e.id) }
func (e *govEnv) Record(event.Kind, ids.ProcID)              {}
func (e *govEnv) RecordInstall(member.Version, []ids.ProcID) {}
func (e *govEnv) AdmitJoiner(q ids.ProcID) bool              { return e.admit(q) }

func TestReadmissionGovernorDefersThenAdmits(t *testing.T) {
	procs := ids.Gen(3)
	bus := newGossipBus()
	allowed := false
	admit := func(ids.ProcID) bool { return allowed }
	cfg := core.Config{Compression: true, MajorityCheck: true}
	for _, p := range procs {
		bus.nodes[p] = core.New(p, &govEnv{bus: bus, id: p, admit: admit}, cfg)
	}
	for _, p := range procs {
		bus.nodes[p].Bootstrap(procs)
	}
	mgr := procs[0]

	// A fresh incarnation of a previously excluded site asks to join while
	// the governor vetoes: the add must be deferred, not started.
	joiner := ids.ProcID{Site: "p9", Incarnation: 3}
	bus.nodes[mgr].Deliver(joiner, core.JoinRequest{Joiner: joiner})
	bus.pump()
	if v := bus.nodes[mgr].View(); v.Has(joiner) || v.Version() != 0 {
		t.Fatalf("vetoed joiner admitted: view %v", v)
	}

	// The veto must not block exclusions queued behind the deferred add.
	victim := procs[2]
	bus.dead.Add(victim)
	bus.nodes[mgr].Suspect(victim)
	bus.pump()
	if v := bus.nodes[mgr].View(); v.Has(victim) {
		t.Fatalf("deferred join blocked the exclusion: view %v", v)
	}
	if v := bus.nodes[mgr].View(); v.Has(joiner) {
		t.Fatalf("exclusion round leaked the vetoed joiner in: view %v", v)
	}

	// The governor's bucket refills: Poke alone (no protocol traffic) must
	// re-scan and admit the queued joiner everywhere.
	allowed = true
	nodeJoiner := core.New(joiner, &govEnv{bus: bus, id: joiner, admit: admit}, cfg)
	bus.nodes[joiner] = nodeJoiner
	nodeJoiner.StartJoin(mgr)
	bus.pump() // delivers the joiner's own request; mgr already queued it
	bus.nodes[mgr].Poke()
	bus.pump()
	for _, p := range []ids.ProcID{mgr, procs[1], joiner} {
		nd := bus.nodes[p]
		if !nd.Alive() {
			t.Fatalf("%v quit: %s", p, nd.QuitReason())
		}
		if v := nd.View(); !v.Has(joiner) {
			t.Errorf("%v's view %v lacks the admitted joiner", p, v)
		}
	}
}
