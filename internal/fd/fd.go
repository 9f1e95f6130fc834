package fd

// The simulator's detector: an oracle wired to the simulated network's
// crash notifications, with configurable latency and spurious-suspicion
// injection. The live runtime's detectors live in detector.go/hysteresis.go.

import (
	"procgroup/internal/ids"
	"procgroup/internal/netsim"
	"procgroup/internal/sim"
)

// SuspectFn is a process's local F1 input: the environment telling it to
// execute faulty_p(q).
type SuspectFn func(q ids.ProcID)

// Oracle watches crashes on a simulated network and, after a per-observer
// delay, delivers faulty_p(q) suspicions to every live registered process.
// It also supports injecting spurious suspicions of live processes, which
// is how scenarios exercise the erroneous-detection paths (§2.3: "if the
// detection was erroneous ... the outcome will depend on the pattern of
// communication that ensues").
type Oracle struct {
	sched    *sim.Scheduler
	net      *netsim.Network
	delay    netsim.DelayFn
	watchers map[ids.ProcID]SuspectFn
	muted    bool
}

// NewOracle builds the detector and subscribes it to the network's crash
// notifications. delay controls the time between a crash and each
// observer's suspicion (nil means uniform 5..20 ticks).
func NewOracle(sched *sim.Scheduler, net *netsim.Network, delay netsim.DelayFn) *Oracle {
	if delay == nil {
		delay = netsim.UniformDelay(5, 20)
	}
	o := &Oracle{
		sched:    sched,
		net:      net,
		delay:    delay,
		watchers: make(map[ids.ProcID]SuspectFn),
	}
	net.OnCrash(o.processCrashed)
	return o
}

// Register subscribes p's suspicion input. Each process registers exactly
// once, at startup.
func (o *Oracle) Register(p ids.ProcID, fn SuspectFn) { o.watchers[p] = fn }

// Mute stops automatic crash→suspicion propagation; scenarios that need
// full manual control over who suspects whom (Table 1, Figure 11) mute the
// oracle and inject every suspicion themselves.
func (o *Oracle) Mute() { o.muted = true }

func (o *Oracle) processCrashed(crashed ids.ProcID) {
	if o.muted {
		return
	}
	// Iterate observers deterministically: the per-observer delays come
	// from the shared seeded generator, so map-order iteration would make
	// identical seeds produce different schedules.
	watchers := make(ids.Set, len(o.watchers))
	for p := range o.watchers {
		watchers.Add(p)
	}
	for _, p := range watchers.Sorted() {
		if p == crashed || !o.net.Alive(p) {
			continue
		}
		observer, suspect := o.watchers[p], crashed
		who := p
		o.sched.After(o.delay(o.sched.Rand(), crashed, p), func() {
			if o.net.Alive(who) {
				observer(suspect)
			}
		})
	}
}

// Inject schedules faulty_p(q) at absolute time t regardless of q's actual
// state — a spurious detection when q is alive.
func (o *Oracle) Inject(p, q ids.ProcID, t sim.Time) {
	o.sched.At(t, func() {
		if fn, ok := o.watchers[p]; ok && o.net.Alive(p) {
			fn(q)
		}
	})
}
