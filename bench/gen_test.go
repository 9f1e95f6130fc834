package main

import (
	"sync"
	"testing"
	"time"
)

// fakeSink acknowledges puts after a fixed service time, except that
// nothing is acknowledged while a stall is on. Reads complete at once.
type fakeSink struct {
	service    time.Duration
	mu         sync.Mutex
	stallUntil time.Time
}

func (f *fakeSink) Put(o op, done func(error)) {
	go func() {
		time.Sleep(f.service)
		f.mu.Lock()
		wait := time.Until(f.stallUntil)
		f.mu.Unlock()
		time.Sleep(wait)
		done(nil)
	}()
}

func (f *fakeSink) Get(op) error { return nil }

func (f *fakeSink) stall(d time.Duration) (from, to time.Time) {
	f.mu.Lock()
	defer f.mu.Unlock()
	from = time.Now()
	f.stallUntil = from.Add(d)
	return from, f.stallUntil
}

func runFake(t *testing.T, s sink, putRate float64, dur time.Duration, during func(g *generator)) (*generator, *latAcc) {
	t.Helper()
	jobs, pool := startReadPool(2)
	g := newGenerator(0, putRate, 100, dur, 16, 1, s, jobs)
	finished := make(chan struct{})
	go func() { g.run(); close(finished) }()
	if during != nil {
		during(g)
	}
	<-finished
	g.drain(time.Second)
	close(jobs)
	pool.Wait()
	var acc latAcc
	acc.add([]*generator{g})
	return g, &acc
}

// A sink that stalls must cost every op that was DUE during the stall,
// not just the one in flight when it began: the schedule does not wait.
func TestStallIsChargedToEveryOpDueDuringIt(t *testing.T) {
	const stall = 50 * time.Millisecond
	f := &fakeSink{service: 200 * time.Microsecond}
	var from, to time.Time
	g, acc := runFake(t, f, 2000, 300*time.Millisecond, func(*generator) {
		time.Sleep(100 * time.Millisecond)
		from, to = f.stall(stall)
	})
	if acc.failed != 0 {
		t.Fatalf("%d ops failed", acc.failed)
	}
	during := 0
	for k := 0; k < g.n; k++ {
		r := &g.recs[k]
		due := g.start.Add(time.Duration(r.due))
		if r.read || due.Before(from) || !due.Before(to) {
			continue
		}
		during++
		if got, floor := time.Duration(r.lat.Load()), to.Sub(due); got < floor {
			t.Errorf("op due %v into the stall has latency %v, below the %v the stall had left", due.Sub(from), got, floor)
		}
	}
	// 2000/s over 50ms is 100 ops: an open loop keeps issuing.
	if during < 80 {
		t.Fatalf("only %d ops were due during the stall: the generator waited for the sink", during)
	}
	if acc.backlogGrowing {
		t.Error("a stall that ended long before the run did was reported as a growing backlog")
	}
}

func TestLatenessIsReported(t *testing.T) {
	_, acc := runFake(t, &fakeSink{}, 1000, 200*time.Millisecond, nil)
	if len(acc.wins) != 1 {
		t.Fatalf("got %d windows for a 200ms run", len(acc.wins))
	}
	// The generator sleeps between ops, so it is never exactly on time,
	// and on any working box it is well within 50ms.
	if late := acc.latenessP99(); late <= 0 || late > 50 {
		t.Fatalf("generator lateness p99 = %vms", late)
	}
}

// A sink slower than the schedule is not a latency to report: the backlog
// grows for as long as the run lasts.
func TestSlowSinkTripsBacklogInvalidation(t *testing.T) {
	slow := &serialSink{every: 2 * time.Millisecond} // 500/s against 2000/s offered
	_, acc := runFake(t, slow, 2000, 400*time.Millisecond, nil)
	if !acc.backlogGrowing {
		t.Fatal("a sink serving a quarter of the offered rate was not reported as a growing backlog")
	}
}

// serialSink serves one put at a time, every `every`.
type serialSink struct {
	every time.Duration
	mu    sync.Mutex
	next  time.Time
}

func (s *serialSink) Put(o op, done func(error)) {
	s.mu.Lock()
	now := time.Now()
	if s.next.Before(now) {
		s.next = now
	}
	s.next = s.next.Add(s.every)
	at := s.next
	s.mu.Unlock()
	time.AfterFunc(time.Until(at), func() { done(nil) })
}

func (s *serialSink) Get(op) error { return nil }
