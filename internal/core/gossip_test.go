package core_test

// Suspicion dissemination under a partial monitoring topology, unit-tested
// at the protocol layer: a ring-1 monitoring environment where the
// coordinator's death is observed by exactly one process, whose
// faulty_p(Mgr) must reach the member next in rank before reconfiguration
// can start. The simulator's environments implement no gossiper, so every
// pinned message-count identity elsewhere in this package is untouched.

import (
	"testing"

	"procgroup/internal/core"
	"procgroup/internal/event"
	"procgroup/internal/ids"
	"procgroup/internal/member"
)

// gossipBus is a tiny synchronous-pump substrate for driving core.Node
// directly: sends queue FIFO and pump delivers them one at a time.
type gossipBus struct {
	nodes map[ids.ProcID]*core.Node
	queue []busMsg
	dead  ids.Set

	// faultyReports counts FaultyReport sends per suspect and gossiped
	// the suspicions handed to the environment's digest batch.
	faultyReports map[ids.ProcID]int
	gossiped      map[ids.ProcID]ids.Set
}

type busMsg struct {
	from, to ids.ProcID
	payload  any
}

func newGossipBus() *gossipBus {
	return &gossipBus{
		nodes:         make(map[ids.ProcID]*core.Node),
		dead:          ids.NewSet(),
		faultyReports: make(map[ids.ProcID]int),
		gossiped:      make(map[ids.ProcID]ids.Set),
	}
}

func (b *gossipBus) pump() {
	for len(b.queue) > 0 {
		m := b.queue[0]
		b.queue = b.queue[1:]
		if b.dead.Has(m.to) {
			continue
		}
		if n := b.nodes[m.to]; n != nil && n.Alive() {
			n.Deliver(m.from, m.payload)
		}
	}
}

// plainEnv implements core.Env and nothing else.
type plainEnv struct {
	bus *gossipBus
	id  ids.ProcID
}

func (e *plainEnv) Send(to ids.ProcID, payload any) {
	if fr, ok := payload.(core.FaultyReport); ok {
		e.bus.faultyReports[fr.Suspect]++
	}
	e.bus.queue = append(e.bus.queue, busMsg{e.id, to, payload})
}

func (e *plainEnv) After(int64, func()) (cancel func())        { return func() {} }
func (e *plainEnv) Quit()                                      { e.bus.dead.Add(e.id) }
func (e *plainEnv) Record(event.Kind, ids.ProcID)              {}
func (e *plainEnv) RecordInstall(member.Version, []ids.ProcID) {}

// gossipEnv adds core.SuspicionGossiper, as a partially monitoring live
// runtime does: gossip is always active, and gossiped suspicions are only
// recorded (no digests travel, so the heir's report is the sole path).
type gossipEnv struct{ plainEnv }

func (e *gossipEnv) GossipActive() bool { return true }
func (e *gossipEnv) GossipSuspicion(q ids.ProcID, _ float64) {
	s := e.bus.gossiped[e.id]
	if s == nil {
		s = ids.NewSet()
		e.bus.gossiped[e.id] = s
	}
	s.Add(q)
}

// killCoordinator bootstraps n nodes over envs built by mkEnv (no timers
// armed), kills the coordinator p1, lets only p5 (its sole ring-1 rank
// predecessor) suspect it, and pumps the bus dry.
func killCoordinator(n int, mkEnv func(*gossipBus, ids.ProcID) core.Env) (*gossipBus, []ids.ProcID) {
	procs := ids.Gen(n)
	bus := newGossipBus()
	cfg := core.Config{Compression: true, MajorityCheck: true} // no timers
	for _, p := range procs {
		bus.nodes[p] = core.New(p, mkEnv(bus, p), cfg)
	}
	for _, p := range procs {
		bus.nodes[p].Bootstrap(procs)
	}
	bus.dead.Add(procs[0])
	bus.nodes[procs[n-1]].Suspect(procs[0])
	bus.pump()
	return bus, procs
}

// TestRelayCarriesCoordinatorSuspicionToNextInRank: in a gossiping
// environment the sole observer p5 gossips its suspicion of the dead
// coordinator p1 and relays it to the heir p2 as exactly one point-to-point
// FaultyReport; p2 must initiate and complete reconfiguration with no
// timers armed.
func TestRelayCarriesCoordinatorSuspicionToNextInRank(t *testing.T) {
	const n = 5
	bus, procs := killCoordinator(n, func(b *gossipBus, p ids.ProcID) core.Env {
		return &gossipEnv{plainEnv{b, p}}
	})
	mgr, heir, observer := procs[0], procs[1], procs[n-1]

	if got := bus.faultyReports[mgr]; got != 1 {
		t.Errorf("FaultyReport(%v) sent %d times, want 1", mgr, got)
	}
	if !bus.gossiped[observer].Has(mgr) {
		t.Errorf("observer %v never gossiped its suspicion of %v", observer, mgr)
	}
	for _, p := range procs[1:] {
		nd := bus.nodes[p]
		if !nd.Alive() {
			t.Fatalf("%v quit: %s", p, nd.QuitReason())
		}
		v := nd.View()
		if v.Has(mgr) {
			t.Errorf("%v still has the dead coordinator in %v", p, v)
		}
		if got := v.Mgr(); got != heir {
			t.Errorf("%v's coordinator = %v, want %v", p, got, heir)
		}
	}
}

// TestRelayInertWithoutRelayerEnv: an environment that is not a
// SuspicionGossiper (the simulator's shape) sends no FaultyReport at all
// for a suspected coordinator: reportSuspicions has no live coordinator to
// report to, and nothing relays to the heir.
func TestRelayInertWithoutRelayerEnv(t *testing.T) {
	bus, procs := killCoordinator(5, func(b *gossipBus, p ids.ProcID) core.Env {
		return &plainEnv{b, p}
	})
	if got := bus.faultyReports[procs[0]]; got != 0 {
		t.Errorf("non-gossiping env sent %d FaultyReports for the suspected coordinator, want 0", got)
	}
}
