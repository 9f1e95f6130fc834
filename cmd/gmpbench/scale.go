// E17: the monitoring-topology scaling sweep. The paper's F1 never asks
// for all-to-all observation, yet the pre-topology live runtime beaconed
// every peer and the TCP transport carried one multiplexed link per
// communicating pair — O(n²) beacons and sockets. This experiment
// measures what decoupling monitoring from membership buys: n × {Full,
// RingK} × {inmem, tcp}, scoring steady-state beacon rate, established
// connections (Stats.ConnsOpen — measured, not asserted), exclusion
// latency, and false suspicions, with the GMP checker certifying every
// arm.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"procgroup/internal/check"
	"procgroup/internal/event"
	"procgroup/internal/ids"
	"procgroup/internal/live"
	"procgroup/internal/topology"
	"procgroup/internal/transport"
)

// scale experiment flags.
var (
	scaleOut    string
	scaleNs     string
	scaleWindow time.Duration
	scaleK      int
)

func scaleFlags() {
	flag.StringVar(&scaleOut, "scale-out", "", "write the scale experiment's results as JSON to this path (e.g. BENCH_scale.json)")
	flag.StringVar(&scaleNs, "scale-ns", "8,16,32,64", "comma-separated group sizes for -exp scale")
	flag.DurationVar(&scaleWindow, "scale-window", 2*time.Second, "steady-state observation window per arm (beacon-rate sample)")
	flag.IntVar(&scaleK, "scale-k", 3, "ring successor count k for the RingK arms")
}

// Beat cadence of every arm: slow enough that a 64-node group on one OS
// process stays quiet (zero false suspicions is part of the acceptance
// bar), fast enough that exclusion latency stays measurable.
const (
	scaleHeartbeat    = 100 * time.Millisecond
	scaleSuspectAfter = 1 * time.Second
)

// beaconCounter wraps a Transport and counts substrate heartbeat sends —
// the beacon-rate measurement the topology claim is scored on.
type beaconCounter struct {
	transport.Transport
	n atomic.Int64
}

func (b *beaconCounter) Send(from, to ids.ProcID, m transport.Message) {
	if _, ok := m.Payload.(live.Heartbeat); ok {
		b.n.Add(1)
	}
	b.Transport.Send(from, to, m)
}

// scaleArm is one (n, topology, transport) measurement.
type scaleArm struct {
	N         int    `json:"n"`
	Topology  string `json:"topology"`
	Transport string `json:"transport"`
	// Mode distinguishes the harness: "" is the in-process runtime (n
	// goroutine nodes, one Go scheduler), "mproc" is one OS process per
	// member over real sockets (E19).
	Mode string `json:"mode,omitempty"`
	// SuspicionFrames counts the wire frames spent disseminating the
	// run's one exclusion (transport.Stats.SuspicionFrames summed over
	// the group).
	SuspicionFrames int64 `json:"suspicion_frames,omitempty"`

	BeaconsPerSec float64 `json:"beacons_per_sec"`
	// ConnsOpen is the transport's established-connection gauge sampled
	// at the end of the steady window (0 on inmem); FullMeshConns is the
	// n(n−1)/2 reference an all-to-all group settles at over TCP.
	ConnsOpen     int64   `json:"conns_open"`
	FullMeshConns int     `json:"full_mesh_conns"`
	ExclMs        float64 `json:"excl_ms"`
	FalseSuspects int     `json:"false_suspects"`
	CheckerOK     bool    `json:"checker_ok"`
}

// scaleRatio is the per-(n, transport) RingK/Full comparison.
type scaleRatio struct {
	N           int     `json:"n"`
	Transport   string  `json:"transport"`
	BeaconRatio float64 `json:"beacon_ratio_full_over_ring"`
	ConnRatio   float64 `json:"conn_ratio_full_over_ring,omitempty"`
}

// scaleReport is the BENCH_scale.json schema.
type scaleReport struct {
	GeneratedBy    string   `json:"generated_by"`
	Env            benchEnv `json:"env"`
	HeartbeatMs    float64  `json:"heartbeat_ms"`
	SuspectAfterMs float64  `json:"suspect_after_ms"`
	WindowMs       float64  `json:"window_ms"`
	RingK          int      `json:"ring_k"`
	// MprocHeartbeatMs/MprocSuspectAfterMs are the (slower) cadence of
	// the multi-process arms, sized so hundreds of OS processes on a
	// small host keep zero false suspicions.
	MprocHeartbeatMs    float64      `json:"mproc_heartbeat_ms,omitempty"`
	MprocSuspectAfterMs float64      `json:"mproc_suspect_after_ms,omitempty"`
	Arms                []scaleArm   `json:"arms"`
	Ratios              []scaleRatio `json:"ratios"`
}

func scaleSizes() []int {
	var ns []int
	for _, f := range strings.Split(scaleNs, ",") {
		if strings.TrimSpace(f) == "" {
			continue // -scale-ns "" runs only the multi-process arms
		}
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 3 {
			fmt.Fprintf(os.Stderr, "scale: ignoring group size %q\n", f)
			continue
		}
		ns = append(ns, n)
	}
	return ns
}

// runScaleArm boots one live group, samples its steady state for the
// window, then kills the most junior non-coordinator and times the
// exclusion, auditing the trace for spurious suspicions and GMP.
func runScaleArm(n int, topoName string, topo topology.Topology, transportName string) (scaleArm, error) {
	arm := scaleArm{N: n, Topology: topoName, Transport: transportName, FullMeshConns: n * (n - 1) / 2}
	var inner transport.Transport
	switch transportName {
	case "inmem":
		inner = transport.NewInmem()
	case "tcp":
		inner = transport.NewTCP()
	default:
		return arm, fmt.Errorf("unknown transport %q", transportName)
	}
	bc := &beaconCounter{Transport: inner}
	c := live.Start(live.Options{
		N:              n,
		HeartbeatEvery: scaleHeartbeat,
		SuspectAfter:   scaleSuspectAfter,
		Transport:      bc,
		Topology:       topo,
	})
	defer c.Stop()
	if _, err := c.WaitConverged(30 * time.Second); err != nil {
		return arm, fmt.Errorf("bootstrap: %w", err)
	}

	// Steady state: let the beacon pattern (and TCP's lazy dials)
	// settle, then sample a clean window.
	time.Sleep(3 * scaleHeartbeat)
	bc.n.Store(0)
	start := time.Now()
	time.Sleep(scaleWindow)
	arm.BeaconsPerSec = float64(bc.n.Load()) / time.Since(start).Seconds()
	arm.ConnsOpen = c.TransportStats().ConnsOpen

	// Exclusion: kill the most junior member that is not the
	// coordinator, so the sample measures the two-phase path (under
	// RingK: monitor detection → GMP-5 report → round).
	v, err := c.WaitConverged(10 * time.Second)
	if err != nil {
		return arm, fmt.Errorf("pre-kill: %w", err)
	}
	members := v.Members()
	victim := members[len(members)-1]
	if victim == v.Mgr() && len(members) > 1 {
		victim = members[len(members)-2]
	}
	killAt := time.Now()
	c.Kill(victim)
	if _, err := c.WaitConverged(60 * time.Second); err != nil {
		return arm, fmt.Errorf("post-kill: %w", err)
	}
	arm.ExclMs = float64(time.Since(killAt)) / float64(time.Millisecond)

	// Audit: any Faulty event naming a process other than the one we
	// killed is a false suspicion.
	falseTargets := ids.NewSet()
	for _, e := range c.Recorder().Events() {
		if e.Kind == event.Faulty && e.Other != victim {
			falseTargets.Add(e.Other)
		}
	}
	arm.FalseSuspects = falseTargets.Len()

	running := ids.NewSet(c.Running()...)
	rep := check.Run(check.Input{
		Recorder: c.Recorder(),
		Initial:  ids.Gen(n),
		Alive:    running.Has,
	})
	arm.CheckerOK = rep.OK()
	if !arm.CheckerOK {
		fmt.Fprintf(os.Stderr, "scale arm n=%d %s/%s checker violations:\n%v\n", n, topoName, transportName, rep)
	}
	return arm, nil
}

func scalePerf(int64) {
	fmt.Println("== E17 · monitoring topology at scale: Full vs RingK beacons, connections, exclusion ==")
	rep := scaleReport{
		GeneratedBy:    "gmpbench -exp scale",
		Env:            captureEnv(),
		HeartbeatMs:    float64(scaleHeartbeat) / float64(time.Millisecond),
		SuspectAfterMs: float64(scaleSuspectAfter) / float64(time.Millisecond),
		WindowMs:       float64(scaleWindow) / float64(time.Millisecond),
		RingK:          scaleK,
	}
	topos := []struct {
		name string
		topo topology.Topology
	}{
		{"full", topology.Full{}},
		{fmt.Sprintf("ring-%d", scaleK), topology.RingK{K: scaleK}},
	}
	byKey := map[string]scaleArm{}
	key := func(n int, topoName, transportName string) string {
		return fmt.Sprintf("%d/%s/%s", n, topoName, transportName)
	}
	for _, n := range scaleSizes() {
		for _, transportName := range []string{"inmem", "tcp"} {
			for _, tp := range topos {
				arm, err := runScaleArm(n, tp.name, tp.topo, transportName)
				if err != nil {
					fmt.Fprintf(os.Stderr, "scale arm n=%d %s/%s: %v\n", n, tp.name, transportName, err)
					continue
				}
				rep.Arms = append(rep.Arms, arm)
				byKey[key(n, tp.name, transportName)] = arm
			}
		}
	}

	w := tw()
	fmt.Fprintln(w, "n\ttransport\ttopology\tbeacons/s\tconns\tfull-mesh\texcl (ms)\tfalse susp\tGMP")
	for _, arm := range rep.Arms {
		verdict := "ok"
		if !arm.CheckerOK {
			verdict = "VIOLATED"
		}
		fmt.Fprintf(w, "%d\t%s\t%s\t%.0f\t%d\t%d\t%.0f\t%d\t%s\n",
			arm.N, arm.Transport, arm.Topology, arm.BeaconsPerSec, arm.ConnsOpen,
			arm.FullMeshConns, arm.ExclMs, arm.FalseSuspects, verdict)
	}
	w.Flush()

	ringName := topos[1].name
	for _, n := range scaleSizes() {
		for _, transportName := range []string{"inmem", "tcp"} {
			full, okF := byKey[key(n, "full", transportName)]
			ring, okR := byKey[key(n, ringName, transportName)]
			if !okF || !okR || ring.BeaconsPerSec == 0 {
				continue
			}
			r := scaleRatio{N: n, Transport: transportName, BeaconRatio: full.BeaconsPerSec / ring.BeaconsPerSec}
			if transportName == "tcp" && ring.ConnsOpen > 0 {
				r.ConnRatio = float64(full.ConnsOpen) / float64(ring.ConnsOpen)
			}
			rep.Ratios = append(rep.Ratios, r)
			if transportName == "tcp" {
				fmt.Printf("n=%-3d tcp: full/ring beacons %.1f×, connections %.1f×\n", n, r.BeaconRatio, r.ConnRatio)
			}
		}
	}
	fmt.Println("note: F1 only needs every faulty process eventually suspected by SOME live member;")
	fmt.Println("      ring-k supplies that with O(n·k) beacons and sockets, and suspicion digests")
	fmt.Println("      riding the beacons carry a monitor's faulty_p(q) to members that don't monitor q.")

	if len(mprocSizes()) > 0 {
		rep.MprocHeartbeatMs = float64(mprocHB) / float64(time.Millisecond)
		rep.MprocSuspectAfterMs = float64(mprocSA) / float64(time.Millisecond)
		mprocPerf(&rep)
	}

	if scaleOut != "" {
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "scale report:", err)
			return
		}
		if err := os.WriteFile(scaleOut, append(blob, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "scale report:", err)
			return
		}
		fmt.Println("wrote", scaleOut)
	}
}
