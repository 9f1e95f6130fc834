package main

import (
	"errors"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// op is one scheduled request. Key indexes the issuing generator's own
// key partition; K indexes its record table.
type op struct {
	Gen  int
	K    int
	Key  int
	Read bool
	Due  time.Time
}

// sink is what a generator drives: the replicated KV in a real run, a
// fake in the generator's own tests.
type sink interface {
	// Put starts a write and returns at once; done runs exactly once,
	// on any goroutine, when the write is acknowledged or has failed.
	Put(o op, done func(err error))
	// Get performs a read and blocks until it completes.
	Get(o op) error
}

const (
	latPending = -1
	latFailed  = -2
)

var errReadBacklog = errors.New("bench: read pool backlog full")

// opRec is one op's measurements, all relative to the generator's start.
// The generator goroutine writes due/late/read before it issues the op;
// the completion writes lat.
type opRec struct {
	due  int64        // ns the op was scheduled at
	late int64        // ns past due the generator actually issued it
	lat  atomic.Int64 // ns from due (not from issue) to completion, or latPending/latFailed
	read bool
}

// generator is one open-loop client: it issues puts and reads on two
// fixed-rate schedules no matter how the sink is doing, so a stall shows
// up as latency on every op that was due during it instead of as a
// thinner load (no coordinated omission).
type generator struct {
	id        int
	putEvery  time.Duration // 0 = no puts
	readEvery time.Duration // 0 = no reads
	maxDur    time.Duration
	keys      int
	rng       *rand.Rand
	sink      sink
	reads     chan<- readJob

	start time.Time
	recs  []opRec
	n     int           // ops issued; owned by run until it returns
	dur   time.Duration // schedule time actually covered
	done  atomic.Int64  // ops completed
	halt  atomic.Bool
	// marks samples the backlog every windowLen of schedule and at its end.
	marks []mark
}

// mark is the backlog at one point of the schedule.
type mark struct {
	at       time.Duration
	issued   int
	inflight int64
}

type readJob struct {
	g *generator
	o op
}

func newGenerator(id int, putRate, readRate float64, maxDur time.Duration, keys int, seed int64, s sink, reads chan<- readJob) *generator {
	g := &generator{
		id: id, maxDur: maxDur, keys: keys, sink: s, reads: reads,
		rng: rand.New(rand.NewSource(seed<<8 | int64(id))),
	}
	if putRate > 0 {
		g.putEvery = time.Duration(float64(time.Second) / putRate)
	}
	if readRate > 0 {
		g.readEvery = time.Duration(float64(time.Second) / readRate)
	}
	g.recs = make([]opRec, int((putRate+readRate)*maxDur.Seconds())+16)
	return g
}

// stop ends the schedule early (churn epochs end when their cycles do).
func (g *generator) stop() { g.halt.Store(true) }

// run issues the whole schedule and returns when its last op is issued;
// completions keep arriving afterwards (see drain).
func (g *generator) run() {
	g.start = time.Now()
	never := g.maxDur + time.Hour
	nextPut, nextRead := never, never
	if g.putEvery > 0 {
		nextPut = 0
	}
	if g.readEvery > 0 {
		// A seeded phase keeps the two schedules from ticking together.
		nextRead = time.Duration(g.rng.Int63n(int64(g.readEvery)))
	}
	nextMark := windowLen
	for !g.halt.Load() {
		due, read := nextPut, false
		if nextRead < nextPut {
			due, read = nextRead, true
		}
		if due >= g.maxDur || g.n == len(g.recs) {
			break
		}
		if read {
			nextRead += g.readEvery
		} else {
			nextPut += g.putEvery
		}
		if d := time.Until(g.start.Add(due)); d > 0 {
			time.Sleep(d)
		}
		for ; due >= nextMark; nextMark += windowLen {
			g.mark(nextMark)
		}
		o := op{Gen: g.id, K: g.n, Key: g.rng.Intn(g.keys), Read: read, Due: g.start.Add(due)}
		rec := &g.recs[g.n]
		rec.due, rec.late, rec.read = int64(due), int64(time.Since(o.Due)), read
		rec.lat.Store(latPending)
		g.n++
		g.dur = due
		if !read {
			g.sink.Put(o, func(err error) { g.complete(o.K, err) })
			continue
		}
		select {
		case g.reads <- readJob{g, o}:
		default:
			g.complete(o.K, errReadBacklog)
		}
	}
	// A last stretch too short to judge growth on is merged into the one
	// before it.
	if n := len(g.marks); n > 0 && g.dur-g.marks[n-1].at < windowLen/2 {
		g.marks = g.marks[:n-1]
	}
	g.mark(g.dur)
}

func (g *generator) mark(at time.Duration) {
	g.marks = append(g.marks, mark{at: at, issued: g.n, inflight: int64(g.n) - g.done.Load()})
}

func (g *generator) complete(k int, err error) {
	r := &g.recs[k]
	if err != nil {
		r.lat.Store(latFailed)
	} else {
		r.lat.Store(int64(time.Since(g.start)) - r.due)
	}
	g.done.Add(1)
}

// drain waits for every issued op to complete, up to limit.
func (g *generator) drain(limit time.Duration) {
	deadline := time.Now().Add(limit)
	for g.done.Load() < int64(g.n) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}

// startReadPool parks n goroutines that execute reads as the generators
// schedule them. Closing the returned channel stops them; wait on wg.
func startReadPool(n int) (chan readJob, *sync.WaitGroup) {
	// Sized for a full second of the highest read rate, so a slow sink
	// shows as read latency long before it shows as refused reads.
	jobs := make(chan readJob, 16384)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				j.g.complete(j.o.K, j.g.sink.Get(j.o))
			}
		}()
	}
	return jobs, &wg
}

// windowStat is one window's per-kind percentiles in ms.
type windowStat struct {
	putP50, putP95   float64
	readP50, readP95 float64
	lateP99          float64 // how late the generator itself ran
}

// latAcc folds finished generator runs (one per steady run, one per churn
// epoch) into the numbers a run reports.
type latAcc struct {
	wins           []windowStat
	puts, reads    []float64 // every acked latency in ms, whole run
	attempted      int
	failed         int
	backlogGrowing bool
	measured       time.Duration
}

// minWindowSamples is the fewest samples a window needs to contribute a
// percentile: p95 with at least ten samples beyond it.
const minWindowSamples = 200

// add folds in generators that ran side by side over the same interval.
// Call it after drain: ops still pending are counted as failed.
func (a *latAcc) add(gens []*generator) {
	var dur time.Duration
	for _, g := range gens {
		dur = max(dur, g.dur)
	}
	nw := max(1, int((dur+windowLen/2)/windowLen))
	putW, readW, lateW := make([][]float64, nw), make([][]float64, nw), make([][]float64, nw)
	for _, g := range gens {
		for k := 0; k < g.n; k++ {
			r := &g.recs[k]
			a.attempted++
			w := min(nw-1, int(r.due*int64(nw)/int64(dur+1)))
			lateW[w] = append(lateW[w], float64(r.late)/1e6)
			lat := r.lat.Load()
			if lat < 0 {
				a.failed++
				continue
			}
			ms := float64(lat) / 1e6
			if r.read {
				readW[w] = append(readW[w], ms)
				a.reads = append(a.reads, ms)
			} else {
				putW[w] = append(putW[w], ms)
				a.puts = append(a.puts, ms)
			}
		}
		// Backlog still growing through the last stretch of the schedule:
		// the sink is not keeping up, so no latency here is a steady state.
		last, prev := g.marks[len(g.marks)-1], mark{}
		if len(g.marks) > 1 {
			prev = g.marks[len(g.marks)-2]
		}
		if grew := last.inflight - prev.inflight; float64(grew) > 0.05*float64(last.issued-prev.issued) {
			a.backlogGrowing = true
		}
	}
	a.measured += dur
	for w := 0; w < nw; w++ {
		var ws windowStat
		sort.Float64s(lateW[w])
		ws.lateP99 = percentile(lateW[w], 0.99)
		if len(putW[w]) >= minWindowSamples {
			sort.Float64s(putW[w])
			ws.putP50, ws.putP95 = percentile(putW[w], 0.50), percentile(putW[w], 0.95)
		}
		if len(readW[w]) >= minWindowSamples {
			sort.Float64s(readW[w])
			ws.readP50, ws.readP95 = percentile(readW[w], 0.50), percentile(readW[w], 0.95)
		}
		a.wins = append(a.wins, ws)
	}
}

// latenessP99 is the median over windows of the generator's per-window
// lateness p99: like the latencies, robust to one window the hypervisor
// stalled.
func (a *latAcc) latenessP99() float64 {
	vals := make([]float64, len(a.wins))
	for i, w := range a.wins {
		vals[i] = w.lateP99
	}
	return median(vals)
}

// overWindows is the median over windows of one per-window statistic;
// windows too thin to have one (zero) are skipped. If every window is
// thin (a smoke run) it falls back to the whole-run percentile.
func (a *latAcc) overWindows(pick func(windowStat) float64, all []float64, p float64) float64 {
	var vals []float64
	for _, w := range a.wins {
		if v := pick(w); v > 0 {
			vals = append(vals, v)
		}
	}
	if len(vals) == 0 {
		s := append([]float64(nil), all...)
		sort.Float64s(s)
		return percentile(s, p)
	}
	return median(vals)
}

func (a *latAcc) acked() int { return len(a.puts) + len(a.reads) }
