package main

import (
	"fmt"
	"slices"
	"time"

	"procgroup/internal/core"
	"procgroup/internal/event"
	"procgroup/internal/ids"
	"procgroup/internal/member"
)

// kill is one crash the churn schedule inflicted.
type kill struct {
	at          time.Time
	coordinator bool
}

// churnSamples are the per-event measurements of the membership path, ms
// unless noted.
type churnSamples struct {
	reconfig, exclusion, join []float64 // fault or Join → last member installed the view
	detect                    []float64 // kill → first faulty(victim) anywhere
	agree                     []float64 // first faulty → first install of the new view
	spread                    []float64 // first → last install
	msgsReconfig              []float64 // protocol messages per coordinator replacement (count)
	msgsExclusion             []float64 // protocol messages per junior exclusion (count)
	failoverGap, exclusionGap []float64 // longest due→ack among puts due within churnGapSpan of the kill
}

// addGaps reads each kill's time without service off the op latencies.
func (c *churnSamples) addGaps(kills []kill, gens []*generator) {
	for _, k := range kills {
		var worst int64
		for _, g := range gens {
			lo, hi := int64(k.at.Sub(g.start)), int64(k.at.Add(churnGapSpan).Sub(g.start))
			for i := 0; i < g.n; i++ {
				r := &g.recs[i]
				if r.read || r.due < lo || r.due >= hi {
					continue
				}
				worst = max(worst, r.lat.Load())
			}
		}
		if k.coordinator {
			c.failoverGap = append(c.failoverGap, float64(worst)/1e6)
		} else {
			c.exclusionGap = append(c.exclusionGap, float64(worst)/1e6)
		}
	}
}

// cycleEstimate is what one kill/join/kill/join cycle takes with time to
// spare; a cycle is started only if this much of the run is left.
const cycleEstimate = 2500 * time.Millisecond

// churnEpochs spends the run's length on epochs of up to churnCycles
// cycles, each on a fresh group.
func (r *run) churnEpochs() {
	left := r.dur
	for left >= cycleEstimate || r.epochs == 0 {
		h, s, err := r.setUp()
		if err != nil {
			r.fail("set-up: %w", err)
			return
		}
		start := time.Now()
		budget := min(left, churnCycles*cycleEstimate)
		r.measure(h, s, budget+cycleEstimate, func() []kill { return r.cycles(h, start.Add(budget)) })
		r.finish(h, s)
		left -= time.Since(start)
		r.epochs++
		if len(r.errs) > 0 {
			return
		}
	}
}

// cycles runs kill-coordinator / join / kill-junior / join rounds until
// the deadline leaves no room for another, churnCycles at most.
func (r *run) cycles(h *harness, deadline time.Time) []kill {
	var kills []kill
	view, err := h.c.WaitConverged(convergeLimit)
	if err != nil {
		r.fail("churn: %w", err)
		return nil
	}
	for cycle := 0; cycle < churnCycles; cycle++ {
		if cycle > 0 && time.Until(deadline) < cycleEstimate {
			break
		}
		for _, coordinator := range []bool{true, false} {
			victim := pickVictim(view, coordinator)
			kills = append(kills, kill{at: time.Now(), coordinator: coordinator})
			if view, err = r.crash(h, view, victim, coordinator); err != nil {
				r.fail("churn cycle %d: %w", cycle, err)
				return kills
			}
			time.Sleep(churnSettle)
			joiner := ids.ProcID{Site: victim.Site, Incarnation: victim.Incarnation + 1}
			if view, err = r.join(h, view, joiner); err != nil {
				r.fail("churn cycle %d: %w", cycle, err)
				return kills
			}
			time.Sleep(churnSettle)
		}
	}
	return kills
}

// pickVictim is the view's coordinator (which is the sequencer), or the
// most junior member that is neither it nor the load's home.
func pickVictim(v *member.View, coordinator bool) ids.ProcID {
	if coordinator {
		return v.Mgr()
	}
	ms := v.Members()
	for i := len(ms) - 1; i >= 0; i-- {
		if ms[i] != v.Mgr() && ms[i] != home(0) {
			return ms[i]
		}
	}
	return ids.Nil
}

// crash kills victim and measures the exclusion off the group's own
// event record.
func (r *run) crash(h *harness, before *member.View, victim ids.ProcID, coordinator bool) (*member.View, error) {
	rec := h.c.Recorder()
	mark := len(rec.Events())
	r.attemptedEvents++
	at := time.Now()
	h.c.Kill(victim)
	after, err := h.c.WaitConverged(convergeLimit)
	if err != nil {
		r.failedEvents++
		return nil, fmt.Errorf("kill %v: %w", victim, err)
	}
	want := slices.DeleteFunc(before.Members(), func(p ids.ProcID) bool { return p == victim })
	if !slices.Equal(after.Members(), want) {
		r.wrongful++
		return nil, fmt.Errorf("kill %v: view %v, want members %v", victim, after, want)
	}

	atUs := float64(at.Sub(h.c.StartedAt())) / 1e3
	var firstFaulty, firstInstall, lastInstall float64
	labels := core.ExclusionLabels
	if coordinator {
		labels = core.ReconfigLabels
	}
	msgs := 0
	for _, e := range rec.Events()[mark:] {
		ts := float64(e.Time)
		switch {
		case e.Kind == event.Faulty && e.Other == victim && firstFaulty == 0:
			firstFaulty = ts
		case e.Kind == event.InstallView && e.Ver == after.Version():
			if firstInstall == 0 {
				firstInstall = ts
			}
			lastInstall = ts
		case e.Kind == event.Send && slices.Contains(labels, e.Label):
			msgs++
		}
	}
	c := &r.churn
	total := (lastInstall - atUs) / 1e3
	if coordinator {
		c.reconfig = append(c.reconfig, total)
		c.msgsReconfig = append(c.msgsReconfig, float64(msgs))
	} else {
		c.exclusion = append(c.exclusion, total)
		c.msgsExclusion = append(c.msgsExclusion, float64(msgs))
	}
	c.detect = append(c.detect, (firstFaulty-atUs)/1e3)
	c.agree = append(c.agree, (firstInstall-firstFaulty)/1e3)
	c.spread = append(c.spread, (lastInstall-firstInstall)/1e3)
	return after, nil
}

// join admits a new incarnation through the home member and waits until
// every member has installed the view with it and the joiner has restored
// the snapshot (its first ViewSync).
func (r *run) join(h *harness, before *member.View, joiner ids.ProcID) (*member.View, error) {
	r.attemptedEvents++
	at := time.Now()
	h.c.Join(joiner, home(0))
	after, err := h.c.WaitConverged(convergeLimit)
	if err == nil && !slices.Equal(after.Members(), append(before.Members(), joiner)) {
		r.wrongful++
		err = fmt.Errorf("view %v, want %v plus the joiner", after, before)
	}
	for deadline := at.Add(convergeLimit); err == nil && h.node(joiner).Stats().Broadcast.Syncs == 0; {
		if time.Now().After(deadline) {
			err = fmt.Errorf("no state transfer within %v", convergeLimit)
		}
		time.Sleep(100 * time.Microsecond)
	}
	if err != nil {
		r.failedEvents++
		return nil, fmt.Errorf("join %v: %w", joiner, err)
	}
	r.churn.join = append(r.churn.join, float64(time.Since(at))/1e6)
	return after, nil
}
