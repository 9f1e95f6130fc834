package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"
)

// metricValue is one reported number; n is how many samples stand behind
// it (printed beside it, not part of the result line).
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// An untraced run is invalid, not merely slow, when the generator itself
// ran later than this at its p99 in most windows: the box was not the
// benchmark's to use. The kernel this was sized on wakes sleepers on a
// 1ms tick, so 1–2ms is the floor, and a noisy neighbour was seen to push
// whole runs to 20ms; lateness is inside every latency anyway, because
// latency runs from the due time. A traced run pays for the order
// recorder's heap and only reports its lateness.
const latenessLimitMs = 50.0

// setupRepeats is how often a run sets up (boot + warm-up) before the
// set-up it measures on, to report a median; churn adds one per epoch.
const setupRepeats = 5

// run is one workload executed once, traced or not.
type run struct {
	w      workload
	seed   int64
	dur    time.Duration
	t      *tracer // nil = untraced
	jobs   chan readJob
	epochs int

	acc     latAcc
	totals  map[string]float64 // public-stats deltas over the measured phases
	setups  []float64          // s
	boots   []float64          // ms
	cpu     float64            // CPU seconds over the measured phases
	rssMB   float64
	checkMs float64
	errs    []error

	attemptedEvents, failedEvents int // churn: kills and joins
	wrongful                      int

	order, replicate, stabilize []float64 // ms, sampled ops (traced)
	churn                       churnSamples
}

// certify reports whether the order recorder and the three checkers run:
// always when traced, and always under churn.
func (r *run) certify() bool { return r.t != nil || r.w.Churn }

func (r *run) fail(format string, args ...any) {
	r.errs = append(r.errs, fmt.Errorf(format, args...))
}

// setUp boots a group and warms it up, timing both.
func (r *run) setUp() (*harness, *kvSink, error) {
	start := time.Now()
	h, err := startHarness(r.w, r.seed+int64(r.epochs), r.t, r.certify())
	if err != nil {
		return nil, nil, err
	}
	s := newKVSink(h)
	if err := s.warmUp(); err != nil {
		h.c.Stop()
		return nil, nil, err
	}
	r.setups = append(r.setups, time.Since(start).Seconds())
	r.boots = append(r.boots, h.bootMs)
	return h, s, nil
}

// measure runs the generators against h for at most maxDur. during, when
// set, runs beside them (the churn schedule) and ends the phase when it
// returns; it reports the kills it made so their service gaps can be
// read off the op latencies once the load has drained.
func (r *run) measure(h *harness, s *kvSink, maxDur time.Duration, during func() []kill) {
	gens := make([]*generator, r.w.Gens)
	per := float64(r.w.Gens)
	for g := range gens {
		gens[g] = newGenerator(g, float64(r.w.PutRate)/per, float64(r.w.ReadRate)/per,
			maxDur, s.keysPer, r.seed*1000+int64(r.epochs), s, r.jobs)
	}
	s.prepare(gens)
	if r.t != nil {
		r.t.stages = make([][]stage, len(gens))
		for g := range gens {
			r.t.stages[g] = make([]stage, len(gens[g].recs)/sampleEvery+1)
		}
		r.t.on.Store(true)
	}
	before, cpu0 := h.counters(), cpuSeconds()
	var wg sync.WaitGroup
	for _, g := range gens {
		wg.Add(1)
		go func() { defer wg.Done(); g.run() }()
	}
	var kills []kill
	if during != nil {
		kills = during()
		for _, g := range gens {
			g.stop()
		}
	}
	wg.Wait()
	r.cpu += cpuSeconds() - cpu0
	for _, g := range gens {
		g.drain(opTimeout)
	}
	if r.t != nil {
		r.t.on.Store(false)
		r.foldStages(gens)
	}
	addDelta(r.totals, before, h.counters())
	r.acc.add(gens)
	r.churn.addGaps(kills, gens)
	r.rssMB = peakRSSMB()
}

// foldStages splits each sampled op's latency at the replicas' apply
// times: due → first apply anywhere (batch wait, pub hop, sequencing),
// first → last apply (fan-out, follower lag), last apply → ack (ack
// coalescing, stable propagation). The three sum to the op's latency.
func (r *run) foldStages(gens []*generator) {
	for g, gen := range gens {
		base := int64(gen.start.Sub(r.t.zero))
		for k := 0; k < gen.n; k += sampleEvery {
			rec, st := &gen.recs[k], &r.t.stages[g][k/sampleEvery]
			lat := rec.lat.Load()
			if rec.read || lat < 0 || st.n.Load() == 0 {
				continue
			}
			due := base + rec.due
			first, last := st.first.Load(), st.last.Load()
			r.order = append(r.order, float64(first-due)/1e6)
			r.replicate = append(r.replicate, float64(last-first)/1e6)
			r.stabilize = append(r.stabilize, float64(due+lat-last)/1e6)
		}
	}
}

// finish verifies the run's outputs and stops the group.
func (r *run) finish(h *harness, s *kvSink) {
	if len(h.c.Running()) != groupSize {
		r.wrongful++
		r.fail("group ended with %d of %d members", len(h.c.Running()), groupSize)
	}
	start := time.Now()
	r.errs = append(r.errs, h.verify(s)...)
	r.checkMs += float64(time.Since(start)) / 1e6
}

// rehearse sets up and tears down setupRepeats−1 times, so that set-up
// time is a median and not the one cold start.
func (r *run) rehearse() error {
	for i := 1; i < setupRepeats; i++ {
		h, _, err := r.setUp()
		if err != nil {
			return err
		}
		h.c.Stop()
	}
	return nil
}

func (r *run) steady() {
	h, s, err := r.setUp()
	if err != nil {
		r.fail("set-up: %w", err)
		return
	}
	r.measure(h, s, r.dur, nil)
	r.finish(h, s)
}

// execute runs workload w once and returns what it measured.
func execute(w workload, seed int64, dur time.Duration, traced bool) *run {
	r := &run{w: w, seed: seed, dur: dur, totals: make(map[string]float64)}
	if traced {
		r.t = newTracer()
	}
	jobs, pool := startReadPool(readPool)
	r.jobs = jobs
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	switch err := r.rehearse(); {
	case err != nil:
		r.fail("set-up: %w", err)
	case w.Churn:
		r.churnEpochs()
	default:
		r.steady()
	}
	runtime.ReadMemStats(&m1)
	close(jobs)
	pool.Wait()
	r.totals["allocBytes"] = float64(m1.TotalAlloc - m0.TotalAlloc)
	r.totals["gcPauseMs"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6

	if late := r.acc.latenessP99(); !traced && late > latenessLimitMs {
		r.fail("invalid run: generator lateness p99 %.3fms exceeds %.1fms", late, latenessLimitMs)
	}
	if r.acc.backlogGrowing {
		r.fail("invalid run: backlog still growing at the end of the measured phase")
	}
	return r
}

// result renders the metrics the given mode reports: every end-to-end
// metric for an untraced run, every per-layer metric for a traced one.
func (r *run) result() result {
	vals, specs := r.endToEnd, endToEnd
	if r.t != nil {
		vals, specs = r.perLayer, perLayer
	}
	res := result{
		Correct:   len(r.errs) == 0,
		Attempted: max(1, r.acc.attempted+r.attemptedEvents),
		Failed:    r.acc.failed + r.failedEvents + r.wrongful,
		Metrics:   make(map[string]metricValue, len(specs)),
	}
	measured := vals()
	for _, sp := range specs {
		v := measured[sp.Name]
		v.Unit = sp.Unit
		res.Metrics[sp.Name] = v
	}
	return res
}

func (r *run) endToEnd() map[string]metricValue {
	a := &r.acc
	return map[string]metricValue{
		"setup_s":     {Value: median(r.setups), n: len(r.setups)},
		"put_p50_ms":  {Value: a.overWindows(func(w windowStat) float64 { return w.putP50 }, a.puts, 0.50), n: len(a.puts)},
		"put_p95_ms":  {Value: a.overWindows(func(w windowStat) float64 { return w.putP95 }, a.puts, 0.95), n: len(a.puts)},
		"read_p50_ms": {Value: a.overWindows(func(w windowStat) float64 { return w.readP50 }, a.reads, 0.50), n: len(a.reads)},
		"read_p95_ms": {Value: a.overWindows(func(w windowStat) float64 { return w.readP95 }, a.reads, 0.95), n: len(a.reads)},
		"peak_rss_mb": {Value: r.rssMB, n: 1},
	}
}

// cpuPerOp is the process's user+sys CPU over the measured phases per
// acked op, in µs. It is reported but not gated: see README.md.
func (r *run) cpuPerOp() float64 { return ratio(r.cpu*1e6, float64(r.acc.acked())) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func medianOf(vals []float64) metricValue { return metricValue{Value: median(vals), n: len(vals)} }

func (r *run) perLayer() map[string]metricValue {
	t, d, a := r.t, r.totals, &r.acc
	puts, secs := float64(len(a.puts)), a.measured.Seconds()
	count := func(name int) float64 { return float64(t.totals[name].count.Load()) }
	fdCalls := count(spObserve) + count(spSuspect)
	fdNs := float64(t.totals[spObserve].total.Load() + t.totals[spSuspect].total.Load())
	puts99 := append([]float64(nil), a.puts...)
	sort.Float64s(puts99)
	e2e := r.endToEnd()

	m := map[string]metricValue{
		"transport.stream_frames_per_op": {Value: ratio(count(spSendStream), puts), n: int(count(spSendStream))},
		"transport.stream_bytes_per_op":  {Value: ratio(float64(t.streamBytes.Load()), puts), n: int(count(spSendStream))},
		"transport.send_ns_per_frame":    {Value: t.mean(spSendStream), n: int(count(spSendStream))},
		"transport.beacon_frames_per_s":  {Value: ratio(count(spSendBeacon), secs), n: int(count(spSendBeacon))},
		"transport.send_queue_max":       {Value: d["queueMax"], n: 1},
		"transport.drops":                {Value: d["drops"], n: 1},

		"fd.observe_ns":          {Value: ratio(fdNs, fdCalls), n: int(fdCalls)},
		"fd.calls_per_s":         {Value: ratio(fdCalls, secs), n: int(fdCalls)},
		"fd.detect_ms":           medianOf(r.churn.detect),
		"fd.crossings":           {Value: d["crossings"], n: 1},
		"fd.mistakes":            {Value: d["mistakes"], n: 1},
		"fd.wrongful_exclusions": {Value: float64(r.wrongful), n: 1},

		"core.agree_ms":                medianOf(r.churn.agree),
		"core.spread_ms":               medianOf(r.churn.spread),
		"core.live_msgs_per_exclusion": medianOf(r.churn.msgsExclusion),
		"core.live_msgs_per_reconfig":  medianOf(r.churn.msgsReconfig),

		"live.boot_ms":          medianOf(r.boots),
		"live.install_drops":    {Value: d["installDrops"], n: 1},
		"live.readmit_deferred": {Value: d["readmitDefer"], n: 1},

		"broadcast.entries_per_pub_batch":  {Value: ratio(d["sequenced"], d["pubBatches"]), n: int(d["pubBatches"])},
		"broadcast.entries_per_seqd_batch": {Value: ratio(d["sequenced"], d["seqdBatches"]), n: int(d["seqdBatches"])},
		"broadcast.acks_per_op":            {Value: ratio(d["acksSent"], d["sequenced"]), n: int(d["acksSent"])},
		"broadcast.acks_suppressed_ratio":  {Value: ratio(d["acksSupp"], d["acksSupp"]+d["acksSent"]), n: int(d["acksSupp"] + d["acksSent"])},
		"broadcast.stable_piggyback_ratio": {Value: ratio(d["stablePiggy"], d["stablePiggy"]+d["stableBcast"]), n: int(d["stablePiggy"] + d["stableBcast"])},
		"broadcast.fence_immediate_ratio":  {Value: ratio(d["fencesImm"], d["fences"]), n: int(d["fences"])},
		"broadcast.handle_app_ns_per_op":   {Value: ratio(float64(t.totals[spHandleApp].self.Load()), d["sequenced"]), n: int(count(spHandleApp))},
		"broadcast.flush_ms":               medianOf(t.flushMs),
		"broadcast.resubmits":              {Value: d["resubmits"], n: 1},
		"broadcast.syncs":                  {Value: d["syncs"], n: 1},
		"broadcast.dropped_overflow":       {Value: d["overflow"], n: 1},

		"rsm.apply_ns":            {Value: t.mean(spApply), n: int(count(spApply))},
		"rsm.snapshot_ms":         {Value: t.mean(spSnapshot) / 1e6, n: int(count(spSnapshot))},
		"rsm.restore_ms":          {Value: t.mean(spRestore) / 1e6, n: int(count(spRestore))},
		"rsm.snapshot_kb":         {Value: ratio(float64(t.snapBytes.Load()), count(spSnapshot)) / 1024, n: int(count(spSnapshot))},
		"rsm.read_fallback_ratio": {Value: ratio(d["readFallbacks"], d["localReads"]+d["readFallbacks"]), n: int(d["localReads"] + d["readFallbacks"])},

		"op.order_ms":     medianOf(r.order),
		"op.replicate_ms": medianOf(r.replicate),
		"op.stabilize_ms": medianOf(r.stabilize),

		"churn.exclusion_p50_ms":     medianOf(r.churn.exclusion),
		"churn.reconfig_p50_ms":      medianOf(r.churn.reconfig),
		"churn.join_p50_ms":          medianOf(r.churn.join),
		"churn.failover_gap_p50_ms":  medianOf(r.churn.failoverGap),
		"churn.exclusion_gap_p50_ms": medianOf(r.churn.exclusionGap),

		"bench.lateness_p99_ms":    {Value: a.latenessP99(), n: a.attempted},
		"bench.traced_put_p50_ms":  e2e["put_p50_ms"],
		"bench.cpu_us_per_op":      {Value: r.cpuPerOp(), n: a.acked()},
		"bench.alloc_bytes_per_op": {Value: ratio(d["allocBytes"], float64(a.acked())), n: a.acked()},
		"bench.gc_pause_ms":        {Value: d["gcPauseMs"], n: 1},
		"bench.put_p99_ms":         {Value: percentile(puts99, 0.99), n: len(puts99)},
		"bench.put_max_ms":         {Value: percentile(puts99, 1), n: len(puts99)},
		"bench.check_ms":           {Value: r.checkMs, n: 1},
	}
	for name, v := range microDrives(r.seed) {
		m[name] = v
	}
	return m
}
