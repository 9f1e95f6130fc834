package main

import "time"

// The fixed configuration every workload runs under. None of it is a
// flag: a benchmark whose group size or timers can be set per run
// compares nothing.
const (
	groupSize      = 5
	heartbeatEvery = 10 * time.Millisecond
	suspectAfter   = 80 * time.Millisecond
	dwell          = 20 * time.Millisecond
	batchCap       = 128
	ackEvery       = 16
	wanOneWay      = 2 * time.Millisecond // injected on every directed link of both planes

	keysTotal = 2048 // partitioned evenly over the generators
	valueLen  = 64

	opTimeout    = 10 * time.Second // an op not acked by then counts as failed
	windowLen    = 5 * time.Second  // end-to-end metrics are medians over windows of this length
	sampleEvery  = 16               // op stages are timestamped for 1 op in this many
	probeReadsPS = 200              // fenced reads/s every put workload carries (see README)
	readPool     = 32               // parked goroutines blocking in Node.Read

	churnSettle   = 400 * time.Millisecond
	churnCycles   = 4 // per epoch: after 4 sequencer kills the home member would be next in line
	churnGapSpan  = time.Second
	convergeLimit = 10 * time.Second
)

// workload is one traffic mix. Rates are per second for the whole group.
type workload struct {
	Name     string
	Why      string
	PutRate  int
	ReadRate int
	WAN      bool
	Churn    bool
	Gens     int // generator goroutines, each homed on its own non-sequencer member
}

var workloads = []workload{
	{
		Name:    "kv_put_lan",
		Why:     "12k puts/s, no delay: CPU per op, batching and the codec/stream path set the result; hop count does not",
		PutRate: 12000, ReadRate: probeReadsPS, Gens: 2,
	},
	{
		Name:    "kv_put_wan",
		Why:     "5k puts/s, 2ms one-way links: latency is protocol hops and 1ms timers, CPU does little; must stay flat when kv_put_lan moves",
		PutRate: 5000, ReadRate: probeReadsPS, WAN: true, Gens: 2,
	},
	{
		Name:    "kv_mixed_lan",
		Why:     "10k puts/s + 10k stability-fenced local reads/s: reads wait on the stable frontier, so cutting ack traffic shows here",
		PutRate: 10000, ReadRate: 10000, Gens: 2,
	},
	{
		Name:    "churn_wan",
		Why:     "2k puts/s while coordinator and junior are killed and rejoined: detector, GMP rounds, flush and state transfer, which steady load never runs",
		PutRate: 2000, ReadRate: probeReadsPS, WAN: true, Churn: true, Gens: 1,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricSpec mirrors one entry of BENCHMARK.json; TestSpecMatchesBenchmarkJSON
// keeps the two identical.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the group sees; every workload reports all
// of them from its untraced run and each is gated by its bound.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"put_p50_ms", "ms", "lower", 0.15},
	{"put_p95_ms", "ms", "lower", 0.20},
	{"read_p50_ms", "ms", "lower", 0.25},
	{"read_p95_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
}

// perLayer is measured by the traced run, from outside the program: T =
// wrappers around the interfaces the layers accept, S = deltas of public
// stats, M = single-goroutine micro-drives. README.md lists which
// end-to-end metric each one should move.
var perLayer = []metricSpec{
	{Name: "transport.stream_frames_per_op", Unit: "count", Better: "lower"},
	{Name: "transport.stream_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "transport.send_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "transport.beacon_frames_per_s", Unit: "1/s", Better: "lower"},
	{Name: "transport.send_queue_max", Unit: "count", Better: "lower"},
	{Name: "transport.drops", Unit: "count", Better: "lower"},
	{Name: "transport.codec_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "transport.loopback_frames_per_s", Unit: "1/s", Better: "higher"},

	{Name: "fd.observe_ns", Unit: "ns", Better: "lower"},
	{Name: "fd.calls_per_s", Unit: "1/s", Better: "lower"},
	{Name: "fd.detect_ms", Unit: "ms", Better: "lower"},
	{Name: "fd.crossings", Unit: "count", Better: "lower"},
	{Name: "fd.mistakes", Unit: "count", Better: "lower"},
	{Name: "fd.wrongful_exclusions", Unit: "count", Better: "lower"},
	{Name: "fd.micro_observe_ns", Unit: "ns", Better: "lower"},

	{Name: "core.agree_ms", Unit: "ms", Better: "lower"},
	{Name: "core.spread_ms", Unit: "ms", Better: "lower"},
	{Name: "core.live_msgs_per_exclusion", Unit: "count", Better: "lower"},
	{Name: "core.live_msgs_per_reconfig", Unit: "count", Better: "lower"},
	{Name: "core.msgs_per_exclusion", Unit: "count", Better: "lower"},
	{Name: "core.msgs_per_reconfig", Unit: "count", Better: "lower"},
	{Name: "core.msgs_per_join", Unit: "count", Better: "lower"},
	{Name: "core.sim_exclusion_us", Unit: "us", Better: "lower"},

	{Name: "live.boot_ms", Unit: "ms", Better: "lower"},
	{Name: "live.install_drops", Unit: "count", Better: "lower"},
	{Name: "live.readmit_deferred", Unit: "count", Better: "lower"},

	{Name: "broadcast.entries_per_pub_batch", Unit: "count", Better: "higher"},
	{Name: "broadcast.entries_per_seqd_batch", Unit: "count", Better: "higher"},
	{Name: "broadcast.acks_per_op", Unit: "count", Better: "lower"},
	{Name: "broadcast.acks_suppressed_ratio", Unit: "ratio", Better: "higher"},
	{Name: "broadcast.stable_piggyback_ratio", Unit: "ratio", Better: "higher"},
	{Name: "broadcast.fence_immediate_ratio", Unit: "ratio", Better: "higher"},
	{Name: "broadcast.handle_app_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "broadcast.flush_ms", Unit: "ms", Better: "lower"},
	{Name: "broadcast.resubmits", Unit: "count", Better: "lower"},
	{Name: "broadcast.syncs", Unit: "count", Better: "lower"},
	{Name: "broadcast.dropped_overflow", Unit: "count", Better: "lower"},
	{Name: "broadcast.loop_cpu_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "broadcast.loop_frames_per_op", Unit: "count", Better: "lower"},

	{Name: "rsm.apply_ns", Unit: "ns", Better: "lower"},
	{Name: "rsm.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "rsm.restore_ms", Unit: "ms", Better: "lower"},
	{Name: "rsm.snapshot_kb", Unit: "kB", Better: "lower"},
	{Name: "rsm.read_fallback_ratio", Unit: "ratio", Better: "lower"},
	{Name: "rsm.single_node_put_us", Unit: "us", Better: "lower"},

	{Name: "op.order_ms", Unit: "ms", Better: "lower"},
	{Name: "op.replicate_ms", Unit: "ms", Better: "lower"},
	{Name: "op.stabilize_ms", Unit: "ms", Better: "lower"},

	{Name: "churn.exclusion_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "churn.reconfig_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "churn.join_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "churn.failover_gap_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "churn.exclusion_gap_p50_ms", Unit: "ms", Better: "lower"},

	{Name: "bench.lateness_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.traced_put_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "bench.alloc_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "bench.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.put_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.put_max_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.check_ms", Unit: "ms", Better: "lower"},
}
