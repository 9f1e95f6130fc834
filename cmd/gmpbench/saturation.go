// E18: the bulk-traffic-neighbor saturation arm of the transport
// experiment. One member saturates its link to its monitor with bulk
// frames (a replication stream to a peer). On the single-plane TCP
// wire that member's beacons — its only liveness evidence under ring
// monitoring — share a FIFO channel with the bulk: each beacon drains
// behind megabytes of queued data and coalescing keeps a new one from
// even enqueueing, so the monitor's timeout reads the queue as silence.
// On the two-plane wire the same beacons ride UDP datagrams the flood
// cannot touch. The experiment scores both wires, clean and flooded, on
// false suspicions and kill→exclusion latency, with the GMP checker
// certifying every run.
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"procgroup/internal/check"
	"procgroup/internal/event"
	"procgroup/internal/ids"
	"procgroup/internal/live"
	"procgroup/internal/topology"
	"procgroup/internal/transport"
)

// saturation experiment flags.
var (
	satWarmup time.Duration
	satBulkKB int
)

func satFlags() {
	flag.DurationVar(&satWarmup, "sat-warmup", 1500*time.Millisecond,
		"flooded observation window before the kill (false-suspicion sampling)")
	flag.IntVar(&satBulkKB, "sat-bulk-kb", 64, "bulk frame size in KiB for the saturation arm")
}

// satBulk is the saturating payload: an opaque blob riding the group's
// wire as substrate traffic — the live runtime observes its arrival and
// drops it before the protocol state machine (which does not know it).
type satBulk struct{ Data []byte }

// SubstrateTraffic marks the payload as non-protocol wire traffic.
func (satBulk) SubstrateTraffic() {}

// MsgLabel implements netsim.Labeled for uniform counting.
func (satBulk) MsgLabel() string { return "SatBulk" }

// satBulkKind is the payload's wire kind (≥ 16: substrate layer; 201 is
// gmpbench's beacon, see transport.go).
const satBulkKind = 202

func init() {
	transport.RegisterBinaryPayload(satBulkKind, satBulk{},
		func(e *transport.Encoder, v any) { e.Blob(v.(satBulk).Data) },
		func(d *transport.Decoder) any { return satBulk{Data: d.Blob()} })
}

// satArm is one (wire, flooded?) measurement.
type satArm struct {
	Wire    string `json:"wire"` // "tcp-shared" | "two-plane-udp"
	Flooded bool   `json:"flooded"`

	// ExclusionMs is kill→converged-exclusion for the flooded neighbor;
	// −1 when the victim was falsely excluded before the kill could
	// happen (the strongest possible degradation signal).
	ExclusionMs float64 `json:"exclusion_ms"`
	// FalseSuspects counts distinct processes named by a Faulty event
	// while provably alive; FalseEvents the raw events.
	FalseSuspects int `json:"false_suspects"`
	FalseEvents   int `json:"false_events"`

	BulkFramesSent int64 `json:"bulk_frames_sent"`
	QueueSaturated int64 `json:"queue_saturated_drops"`
	SendQueueMax   int64 `json:"send_queue_max"`

	CheckerOK bool `json:"checker_ok"`
}

// The saturation arms beat slower than E22's 2ms/20ms: the flood burns
// real CPU (encode + writev + decode of the bulk stream), and on small
// GOMAXPROCS that scheduler jitter hits every goroutine. The wider
// cadence keeps compute starvation out of the measurement so what
// remains is the thing under test — where the victim's beacons queue.
// Both wires monitor with the default fixed timeout at satSuspectAfter.
const (
	satHeartbeat    = 4 * time.Millisecond
	satSuspectAfter = 40 * time.Millisecond
)

func satTransport(wire string) transport.Transport {
	if wire == "two-plane-udp" {
		return transport.NewTwoPlane(transport.NewTCP(), transport.NewUDP())
	}
	return transport.NewTCP()
}

// runSatArm boots a 4-node ring-1 group on the given wire, optionally
// has the victim flood its link to its monitor with bulk frames,
// observes a warmup window (every suspicion in it is false — nobody has
// died), kills the victim mid-flood, and times the exclusion.
func runSatArm(wire string, flooded bool) (satArm, error) {
	arm := satArm{Wire: wire, Flooded: flooded}
	c := live.Start(live.Options{
		N:              4,
		HeartbeatEvery: satHeartbeat,
		SuspectAfter:   satSuspectAfter,
		Transport:      satTransport(wire),
		Topology:       topology.RingK{K: 1},
	})
	defer c.Stop()
	v, err := c.WaitConverged(10 * time.Second)
	if err != nil {
		return arm, fmt.Errorf("bootstrap: %w", err)
	}

	// Ring-1 over the view's seniority order: members[i] watches
	// members[i+1]. The victim s floods bulk data at its sole monitor w
	// — a replication stream to a peer is the textbook case — so on the
	// single-plane wire the bulk frames and the beacons carrying s's
	// only liveness evidence share one FIFO channel: each beacon queues
	// behind megabytes of bulk, and beacon coalescing means a new
	// sample cannot even enqueue until the previous one drains. Neither
	// process is the coordinator: the samples measure exclusion, not
	// reconfiguration.
	members := v.Members()
	w, s := members[1], members[2]

	stop := make(chan struct{})
	var floodWg sync.WaitGroup
	if flooded {
		floodWg.Add(1)
		go func() {
			defer floodWg.Done()
			data := make([]byte, satBulkKB<<10)
			tr := c.Transport()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Adaptive pacing: keep the stream plane's queues deep
				// enough to exhibit head-of-line delay without tripping
				// the bounded queue's drops into the measurement.
				if c.TransportStats().SendQueueNow > 512 {
					time.Sleep(200 * time.Microsecond)
					continue
				}
				tr.Send(s, w, transport.Message{Payload: satBulk{Data: data}})
				arm.BulkFramesSent++
			}
		}()
	}
	stopFlood := func() {
		select {
		case <-stop:
		default:
			close(stop)
		}
		floodWg.Wait()
	}
	defer stopFlood()

	// Warmup/observation window: the flood is live, nobody has died, so
	// every Faulty event recorded before the kill is false.
	time.Sleep(satWarmup)

	countEvents := func() int { return len(c.Recorder().Events()) }
	preKill := countEvents()

	alive := false
	for _, p := range c.Running() {
		if p == s {
			alive = true
		}
	}
	arm.ExclusionMs = -1
	if alive {
		start := time.Now()
		c.Kill(s)
		if _, err := c.WaitConverged(15 * time.Second); err != nil {
			stopFlood()
			return arm, fmt.Errorf("post-kill convergence: %w", err)
		}
		arm.ExclusionMs = float64(time.Since(start)) / float64(time.Millisecond)
	}
	stopFlood()

	// Settle so late suspicions resolve before the audit (GMP-5 is a
	// liveness property; see fd.go's identical wait).
	countFaulty := func() int {
		n := 0
		for _, e := range c.Recorder().Events() {
			if e.Kind == event.Faulty {
				n++
			}
		}
		return n
	}
	settleDeadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(settleDeadline) {
		before := countFaulty()
		if _, err := c.WaitConverged(5 * time.Second); err != nil {
			break
		}
		time.Sleep(100 * time.Millisecond)
		if countFaulty() == before {
			break
		}
	}

	// Audit: every Faulty event before the kill is false (nobody had
	// died), and after it only the victim is legitimately named.
	falseTargets := ids.NewSet()
	for i, e := range c.Recorder().Events() {
		if e.Kind != event.Faulty {
			continue
		}
		if i < preKill || e.Other != s {
			falseTargets.Add(e.Other)
			arm.FalseEvents++
		}
	}
	arm.FalseSuspects = len(falseTargets.Sorted())

	st := c.TransportStats()
	arm.QueueSaturated = st.QueueSaturated
	arm.SendQueueMax = st.SendQueueMax

	running := ids.NewSet(c.Running()...)
	rep := check.Run(check.Input{
		Recorder: c.Recorder(),
		Initial:  ids.Gen(4),
		Alive:    running.Has,
	})
	arm.CheckerOK = rep.OK()
	if !arm.CheckerOK {
		fmt.Fprintf(os.Stderr, "saturation arm %s flooded=%v checker violations:\n%v\n", wire, flooded, rep)
	}
	return arm, nil
}

// satPerf runs the four arms and prints the comparison; called from
// transportPerf so the results land in BENCH_transport.json.
func satPerf() []satArm {
	fmt.Println("-- E18 · neighbor-saturation: detector quality per wire plane --")
	var arms []satArm
	for _, wire := range []string{"tcp-shared", "two-plane-udp"} {
		for _, flooded := range []bool{false, true} {
			arm, err := runSatArm(wire, flooded)
			if err != nil {
				fmt.Fprintf(os.Stderr, "saturation arm %s flooded=%v: %v\n", wire, flooded, err)
				continue
			}
			arms = append(arms, arm)
		}
	}
	w := tw()
	fmt.Fprintln(w, "wire\tflooded\texclusion (ms)\tfalse suspects\tbulk frames\tqueue max\tGMP")
	for _, a := range arms {
		verdict := "ok"
		if !a.CheckerOK {
			verdict = "VIOLATED"
		}
		excl := fmt.Sprintf("%.1f", a.ExclusionMs)
		if a.ExclusionMs < 0 {
			excl = "victim falsely excluded"
		}
		fmt.Fprintf(w, "%s\t%v\t%s\t%d\t%d\t%d\t%s\n",
			a.Wire, a.Flooded, excl, a.FalseSuspects, a.BulkFramesSent, a.SendQueueMax, verdict)
	}
	w.Flush()
	fmt.Println("note: on the shared TCP channel the victim's beacons queue FIFO behind its own")
	fmt.Println("      bulk stream (delay + coalescing read as silence past the timeout); on")
	fmt.Println("      the UDP beacon plane the same flood cannot touch them.")
	return arms
}
