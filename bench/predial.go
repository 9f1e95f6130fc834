package main

import (
	"fmt"
	"sync"
	"time"

	"procgroup/internal/ids"
	"procgroup/internal/transport"
)

// dialProbe is the frame predialed sends to prove a pair's connection
// works. It never leaves this file: the receiving handler swallows it.
type dialProbe struct{}

// dialProbeKind is a wire kind no layer of the program uses (they stop
// at 26).
const dialProbeKind = 250

func init() { transport.RegisterEmptyPayload(dialProbeKind, dialProbe{}) }

// predialed wraps the TCP stream plane and, whenever a process registers,
// establishes its connection to every process already there, resending a
// probe until one arrives. It exists because of a defect in
// transport.TCP that the benchmark may not fix: when both ends of a pair
// live in one TCP instance, adopt can install the accepted socket as the
// pair's connection between the dialer's hello write and its re-check in
// ensureConn; the dialer then takes connInit == init for a simultaneous
// open it lost and closes its socket — the other end of the one it
// keeps. The first frames of the pair are written into a dead socket and
// no drop is counted. Left alone, about one boot in a hundred never
// opens its first view (a member's Flush is lost) and about one join in
// three hundred wedges the group the same way. A probe lost like that is
// simply sent again; real traffic only ever sees connections a probe has
// crossed. The cost is that all ten pairs are connected from boot on
// instead of on first use (six of them carry nothing: beacons ride UDP).
type predialed struct {
	transport.Transport
	mu    sync.Mutex
	procs map[ids.ProcID]struct{}
}

func newPredialed(inner transport.Transport) *predialed {
	return &predialed{Transport: inner, procs: make(map[ids.ProcID]struct{})}
}

func (p *predialed) Register(id ids.ProcID, h transport.Handler) error {
	var seenMu sync.Mutex
	seen := make(map[ids.ProcID]bool)
	err := p.Transport.Register(id, func(from ids.ProcID, m transport.Message) {
		if _, probe := m.Payload.(dialProbe); probe {
			seenMu.Lock()
			seen[from] = true
			seenMu.Unlock()
			return
		}
		h(from, m)
	})
	if err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	// All pairs are probed at once and the stragglers again every round: a
	// round costs one sleep whatever the group's size.
	for start := time.Now(); ; time.Sleep(time.Millisecond) {
		var missing []ids.ProcID
		seenMu.Lock()
		for peer := range p.procs {
			if !seen[peer] {
				missing = append(missing, peer)
			}
		}
		seenMu.Unlock()
		if len(missing) == 0 {
			break
		}
		if time.Since(start) > convergeLimit {
			p.Transport.Unregister(id)
			return fmt.Errorf("bench: no connection from %v to %v within %v", missing, id, convergeLimit)
		}
		for _, peer := range missing {
			p.Transport.Send(peer, id, transport.Message{MsgID: 1, Payload: dialProbe{}})
		}
	}
	p.procs[id] = struct{}{}
	return nil
}

func (p *predialed) Unregister(id ids.ProcID) {
	p.mu.Lock()
	delete(p.procs, id)
	p.mu.Unlock()
	p.Transport.Unregister(id)
}
