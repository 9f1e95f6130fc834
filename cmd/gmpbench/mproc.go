// E19: the multi-process scale harness. Every in-process experiment runs
// n goroutine nodes inside one Go runtime — one scheduler, one GC, one
// address space — which caps the believable n and lets the runtime hide
// coordination costs a real deployment would pay. This harness makes the
// deployment literal: one OS process per member (fork/exec of this very
// binary's `member` subcommand), real TCP for protocol traffic and real
// UDP for beacons, a line-protocol control channel on each member's
// stdio, and a merged cross-process trace the GMP checker certifies.
//
// The coordinator measures what the n=64 wall is made of: steady-state
// beacon rate, suspicion frames per exclusion, exclusion latency, and
// false suspicions, at n where the single-process harness stops being
// evidence.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"procgroup/internal/check"
	"procgroup/internal/event"
	"procgroup/internal/ids"
	"procgroup/internal/live"
	"procgroup/internal/topology"
	"procgroup/internal/trace"
	"procgroup/internal/transport"
)

// multi-process experiment flags.
var (
	mprocNs   string
	mprocHB   time.Duration
	mprocSA   time.Duration
	mprocHier string
)

func mprocFlags() {
	flag.StringVar(&mprocNs, "scale-mproc-ns", "", "comma-separated group sizes for the multi-process arms of -exp scale (one OS process per member; empty disables), e.g. 128,256,512")
	flag.DurationVar(&mprocHB, "scale-mproc-hb", 250*time.Millisecond, "beacon interval of the multi-process arms")
	flag.DurationVar(&mprocSA, "scale-mproc-sa", 3*time.Second, "suspicion threshold of the multi-process arms")
	flag.StringVar(&mprocHier, "scale-hier", "hier:16:3", "hierarchical topology spec for the multi-process arms")
}

// forceMultiProc raises GOMAXPROCS to at least 2 so the benchmark's
// processes actually overlap: a containerized single-vCPU default would
// otherwise serialize every member through one P and the "multi-core"
// claim in the report's env block would be vacuous.
func forceMultiProc() {
	if n := runtime.NumCPU(); n > runtime.GOMAXPROCS(0) {
		runtime.GOMAXPROCS(n)
	}
	if runtime.GOMAXPROCS(0) < 2 {
		runtime.GOMAXPROCS(2)
	}
}

// planeCounter counts every frame its inner transport sends — wrapped
// around the UDP beacon plane it measures exactly the beacon-class
// traffic (heartbeats and digests), the denominator of the beacon-rate
// metric.
type planeCounter struct {
	transport.Transport
	n atomic.Int64
}

func (b *planeCounter) Send(from, to ids.ProcID, m transport.Message) {
	b.n.Add(1)
	b.Transport.Send(from, to, m)
}

// memberStats is the per-member report written at DONE, joined by the
// coordinator into the arm's totals and the merged trace's time base.
type memberStats struct {
	StartUnixMicro int64           `json:"start_unix_micro"`
	Transport      transport.Stats `json:"transport"`
}

// lineOut serializes stdout lines: the view-stream goroutine and the
// command loop share the pipe.
type lineOut struct {
	mu sync.Mutex
	w  *bufio.Writer
}

func (o *lineOut) printf(format string, args ...any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	fmt.Fprintf(o.w, format+"\n", args...)
	o.w.Flush()
}

// runMember is the `gmpbench member` subcommand: one group member in its
// own OS process, driven by the coordinator over stdin/stdout.
//
//	-> ADDR <tcp> <udp>          after boot: the member's endpoints
//	<- PEER <site> <tcp> <udp>   one per roster member: address wiring
//	<- GO                        install the roster (GMP-0)
//	-> VIEW <ver> <sites,...>    streamed on every view install
//	<- SAMPLE <ms>               count beacon-plane frames for a window
//	-> RATE <frames/s>
//	<- CRASH                     hard-kill the node (host failure)
//	-> CRASHED
//	<- DONE                      write trace+stats files, then exit
//	-> BYE
func runMember(args []string) int {
	fs := flag.NewFlagSet("member", flag.ExitOnError)
	self := fs.String("self", "", "this member's site name")
	n := fs.Int("n", 0, "group size (roster is p1..pn)")
	hb := fs.Duration("hb", 250*time.Millisecond, "beacon interval")
	sa := fs.Duration("sa", 3*time.Second, "suspicion threshold")
	topoSpec := fs.String("topo", "ring:3", "monitoring topology spec")
	tracePath := fs.String("trace", "", "write the member's event trace (JSONL) here at DONE")
	statsPath := fs.String("stats", "", "write the member's stats (JSON) here at DONE")
	fs.Parse(args)
	forceMultiProc()

	topo, err := topology.Parse(*topoSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "member:", err)
		return 1
	}
	selfID := ids.Named(*self)
	roster := ids.Gen(*n)

	tcp := transport.NewTCP()
	udp := transport.NewUDP()
	bc := &planeCounter{Transport: udp}
	c := live.Start(live.Options{
		Self:           selfID,
		Roster:         roster,
		HeartbeatEvery: *hb,
		SuspectAfter:   *sa,
		Transport:      transport.NewTwoPlane(tcp, bc),
		Topology:       topo,
	})
	defer c.Stop()

	out := &lineOut{w: bufio.NewWriter(os.Stdout)}
	tcpAddr, okT := tcp.Addr(selfID)
	udpAddr, okU := udp.Addr(selfID)
	if !okT || !okU {
		fmt.Fprintln(os.Stderr, "member: endpoints did not open")
		return 1
	}
	out.printf("ADDR %s %s", tcpAddr, udpAddr)

	go func() {
		for u := range c.Updates() {
			sites := make([]string, len(u.Members))
			for i, m := range u.Members {
				sites[i] = m.Site
			}
			out.printf("VIEW %d %s", u.Ver, strings.Join(sites, ","))
		}
	}()

	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for in.Scan() {
		f := strings.Fields(in.Text())
		if len(f) == 0 {
			continue
		}
		switch f[0] {
		case "PEER":
			if len(f) != 4 {
				continue
			}
			p := ids.Named(f[1])
			tcp.AddPeer(p, f[2])
			if err := udp.AddPeer(p, f[3]); err != nil {
				fmt.Fprintln(os.Stderr, "member:", err)
			}
		case "GO":
			c.BootstrapSelf()
		case "SAMPLE":
			ms, _ := strconv.Atoi(f[1])
			go func() {
				bc.n.Store(0)
				start := time.Now()
				time.Sleep(time.Duration(ms) * time.Millisecond)
				out.printf("RATE %.2f", float64(bc.n.Load())/time.Since(start).Seconds())
			}()
		case "CRASH":
			c.Kill(selfID)
			out.printf("CRASHED")
		case "DONE":
			st := memberStats{
				StartUnixMicro: c.StartedAt().UnixMicro(),
				Transport:      c.TransportStats(),
			}
			if *tracePath != "" {
				if f, err := os.Create(*tracePath); err == nil {
					c.Recorder().WriteJSONL(f)
					f.Close()
				}
			}
			if *statsPath != "" {
				if blob, err := json.Marshal(st); err == nil {
					os.WriteFile(*statsPath, blob, 0o644)
				}
			}
			out.printf("BYE")
			return 0
		}
	}
	return 0
}

// --- coordinator --------------------------------------------------------------

// viewMsg is one VIEW line from one member.
type viewMsg struct {
	idx   int
	ver   int
	sites string
}

// memberProc is the coordinator's handle on one spawned member.
type memberProc struct {
	site      string
	cmd       *exec.Cmd
	in        io.WriteCloser
	out       io.Reader
	tcpAddr   string
	udpAddr   string
	tracePath string
	statsPath string

	addr    chan [2]string
	rate    chan float64
	crashed chan struct{}
	bye     chan struct{}
	dead    chan struct{}
}

func (m *memberProc) send(line string) {
	io.WriteString(m.in, line+"\n")
}

// read demultiplexes the member's stdout into the typed channels.
func (m *memberProc) read(idx int, views chan<- viewMsg) {
	sc := bufio.NewScanner(m.out)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		f := strings.SplitN(sc.Text(), " ", 3)
		switch f[0] {
		case "ADDR":
			if len(f) == 3 {
				m.addr <- [2]string{f[1], f[2]}
			}
		case "VIEW":
			if len(f) == 3 {
				ver, _ := strconv.Atoi(f[1])
				views <- viewMsg{idx: idx, ver: ver, sites: f[2]}
			}
		case "RATE":
			if len(f) >= 2 {
				r, _ := strconv.ParseFloat(f[1], 64)
				m.rate <- r
			}
		case "CRASHED":
			close(m.crashed)
		case "BYE":
			close(m.bye)
		}
	}
	close(m.dead)
}

// mprocArmSpec names one multi-process measurement.
type mprocArmSpec struct {
	topoName string
	topoSpec string
}

// runMprocArm spawns one OS process per member, wires their transports,
// bootstraps the group, samples the steady state, crashes the most
// junior member, times the exclusion, then joins every process and
// audits the merged trace.
func runMprocArm(n int, spec mprocArmSpec) (arm scaleArm, err error) {
	arm = scaleArm{
		N: n, Topology: spec.topoName, Transport: "twoplane",
		Mode:          "mproc",
		FullMeshConns: n * (n - 1),
	}
	dir, err := os.MkdirTemp("", "gmpbench-mproc-")
	if err != nil {
		return arm, err
	}
	defer os.RemoveAll(dir)
	exe, err := os.Executable()
	if err != nil {
		return arm, err
	}
	roster := ids.Gen(n)
	victim := roster[n-1] // most junior, never the coordinator p1

	members := make([]*memberProc, n)
	views := make(chan viewMsg, 8*n)
	defer func() {
		// On any exit path, make sure no child outlives the arm.
		for _, m := range members {
			if m != nil && m.cmd.Process != nil {
				m.cmd.Process.Kill()
			}
		}
		for _, m := range members {
			if m != nil {
				m.cmd.Wait()
			}
		}
	}()

	for i, p := range roster {
		m := &memberProc{
			site:      p.Site,
			tracePath: filepath.Join(dir, p.Site+".trace.jsonl"),
			statsPath: filepath.Join(dir, p.Site+".stats.json"),
			addr:      make(chan [2]string, 1),
			rate:      make(chan float64, 1),
			crashed:   make(chan struct{}),
			bye:       make(chan struct{}),
			dead:      make(chan struct{}),
		}
		m.cmd = exec.Command(exe, "member",
			"-self", p.Site,
			"-n", strconv.Itoa(n),
			"-hb", mprocHB.String(),
			"-sa", mprocSA.String(),
			"-topo", spec.topoSpec,
			"-trace", m.tracePath,
			"-stats", m.statsPath,
		)
		m.cmd.Stderr = os.Stderr
		m.out, err = m.cmd.StdoutPipe()
		if err != nil {
			return arm, err
		}
		m.in, err = m.cmd.StdinPipe()
		if err != nil {
			return arm, err
		}
		if err := m.cmd.Start(); err != nil {
			return arm, fmt.Errorf("spawn %s: %w", p.Site, err)
		}
		members[i] = m
		go m.read(i, views)
	}

	// Address exchange: collect every member's endpoints, then introduce
	// everyone to everyone and bootstrap.
	for _, m := range members {
		select {
		case a := <-m.addr:
			m.tcpAddr, m.udpAddr = a[0], a[1]
		case <-m.dead:
			return arm, fmt.Errorf("%s exited before reporting its endpoints", m.site)
		case <-time.After(60 * time.Second):
			return arm, fmt.Errorf("%s: no ADDR after 60s", m.site)
		}
	}
	var wires strings.Builder
	for _, m := range members {
		fmt.Fprintf(&wires, "PEER %s %s %s\n", m.site, m.tcpAddr, m.udpAddr)
	}
	for _, m := range members {
		io.WriteString(m.in, wires.String())
		m.send("GO")
	}

	// Bootstrap barrier: every member installs version 0 over the roster.
	latest := make([]viewMsg, n)
	booted := 0
	bootDeadline := time.After(120 * time.Second)
	for booted < n {
		select {
		case v := <-views:
			if latest[v.idx].sites == "" && v.ver == 0 {
				booted++
			}
			latest[v.idx] = v
		case <-bootDeadline:
			return arm, fmt.Errorf("only %d/%d members installed the initial view after 120s", booted, n)
		}
	}

	// Steady state: sample the beacon plane across every member at once.
	window := 3 * time.Second
	for _, m := range members {
		m.send(fmt.Sprintf("SAMPLE %d", int(window/time.Millisecond)))
	}
	var rate float64
	for _, m := range members {
		select {
		case r := <-m.rate:
			rate += r
		case <-m.dead:
			return arm, fmt.Errorf("%s died during the steady-state sample", m.site)
		case <-time.After(window + 60*time.Second):
			return arm, fmt.Errorf("%s: no RATE", m.site)
		}
	}
	arm.BeaconsPerSec = rate

	// Crash the most junior member and time the exclusion: every
	// survivor must install a view without it.
	vi := n - 1
	killAt := time.Now()
	members[vi].send("CRASH")
	select {
	case <-members[vi].crashed:
	case <-time.After(30 * time.Second):
		return arm, fmt.Errorf("victim %s never acknowledged CRASH", victim.Site)
	}
	excluded := func(v viewMsg) bool {
		if v.sites == "" {
			return false
		}
		for _, s := range strings.Split(v.sites, ",") {
			if s == victim.Site {
				return false
			}
		}
		return true
	}
	exclDeadline := time.After(180 * time.Second)
	for {
		all := true
		for i := range latest {
			if i != vi && !excluded(latest[i]) {
				all = false
				break
			}
		}
		if all {
			break
		}
		select {
		case v := <-views:
			latest[v.idx] = v
		case <-exclDeadline:
			if keep := os.Getenv("GMPBENCH_MPROC_KEEP"); keep != "" {
				// Post-mortem aid: drain every member's trace before the
				// deferred kill destroys the evidence, and keep the dir.
				for _, m := range members {
					m.send("DONE")
				}
				for _, m := range members {
					select {
					case <-m.bye:
					case <-m.dead:
					case <-time.After(30 * time.Second):
					}
				}
				saved := filepath.Join(keep, fmt.Sprintf("mproc-%d-%s", n, spec.topoName))
				os.RemoveAll(saved)
				if err := os.Rename(dir, saved); err == nil {
					return arm, fmt.Errorf("survivors did not exclude %s within 180s (traces kept in %s)", victim.Site, saved)
				}
			}
			return arm, fmt.Errorf("survivors did not exclude %s within 180s", victim.Site)
		}
	}
	arm.ExclMs = float64(time.Since(killAt)) / float64(time.Millisecond)

	// Tear down: every member (victim included — its node is dead, its
	// process is not) writes its trace and stats, then exits.
	for _, m := range members {
		m.send("DONE")
	}
	for _, m := range members {
		select {
		case <-m.bye:
		case <-m.dead:
		case <-time.After(60 * time.Second):
			return arm, fmt.Errorf("%s did not write its trace", m.site)
		}
		m.cmd.Wait()
	}

	// Join the evidence: per-member stats sum into the arm's totals, and
	// the per-member traces merge into one run the checker certifies.
	bases := make(map[ids.ProcID]int64, n)
	var conns int64
	for _, m := range members {
		blob, err := os.ReadFile(m.statsPath)
		if err != nil {
			return arm, fmt.Errorf("%s stats: %w", m.site, err)
		}
		var st memberStats
		if err := json.Unmarshal(blob, &st); err != nil {
			return arm, fmt.Errorf("%s stats: %w", m.site, err)
		}
		bases[ids.Named(m.site)] = st.StartUnixMicro
		arm.SuspicionFrames += st.Transport.SuspicionFrames
		conns += st.Transport.ConnsOpen
	}
	// Only a link's dialing end counts it, so the sum counts each
	// directed channel's connection once.
	arm.ConnsOpen = conns

	rec, err := mergeTraces(members, bases)
	if err != nil {
		return arm, err
	}
	falseTargets := ids.NewSet()
	for _, e := range rec.Events() {
		if e.Kind == event.Faulty && e.Other != victim {
			falseTargets.Add(e.Other)
		}
	}
	arm.FalseSuspects = falseTargets.Len()
	rep := check.Run(check.Input{
		Recorder: rec,
		Initial:  roster,
		Alive:    func(p ids.ProcID) bool { return p != victim },
	})
	arm.CheckerOK = rep.OK()
	if !arm.CheckerOK {
		fmt.Fprintf(os.Stderr, "mproc arm n=%d %s checker violations:\n%v\n", n, spec.topoName, rep)
	}
	return arm, nil
}

// sendKey identifies a message across the merged traces: msgID counters
// are per-process, so the sender's identity disambiguates collisions.
type sendKey struct {
	sender ids.ProcID
	msgID  int64
}

// mergeTraces replays every member's event stream into one fresh
// recorder, in an order consistent with both each member's own history
// and the send-before-receive causality between them — so the merged
// run's vector clocks (which the cut and knowledge checks consume) are
// exactly the causal structure of the distributed execution. Wall-clock
// times (absolute via each member's reported base) only break ties.
func mergeTraces(members []*memberProc, bases map[ids.ProcID]int64) (*trace.Recorder, error) {
	type tagged struct {
		e   event.Event
		abs int64
	}
	queues := make([][]tagged, 0, len(members))
	sends := make(map[sendKey]bool)
	total := 0
	for _, m := range members {
		f, err := os.Open(m.tracePath)
		if err != nil {
			return nil, fmt.Errorf("%s trace: %w", m.site, err)
		}
		evs, err := trace.ReadJSONL(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s trace: %w", m.site, err)
		}
		base := bases[ids.Named(m.site)]
		q := make([]tagged, len(evs))
		for i, e := range evs {
			q[i] = tagged{e: e, abs: base + e.Time}
			if e.Kind == event.Send {
				sends[sendKey{e.Proc, e.MsgID}] = true
			}
		}
		queues = append(queues, q)
		total += len(evs)
	}

	var cur int64
	rec := trace.NewRecorder(func() int64 { return cur })
	heads := make([]int, len(queues))
	replayed := make(map[sendKey]bool, len(sends))
	remap := make(map[sendKey]int64, len(sends))
	nextID := int64(0)
	rid := func(k sendKey) int64 {
		id, ok := remap[k]
		if !ok {
			nextID++
			id = nextID
			remap[k] = id
		}
		return id
	}
	for done := 0; done < total; done++ {
		best, forced := -1, -1
		var bestAbs, forcedAbs int64
		for i := range queues {
			if heads[i] >= len(queues[i]) {
				continue
			}
			t := queues[i][heads[i]]
			if forced == -1 || t.abs < forcedAbs {
				forced, forcedAbs = i, t.abs
			}
			if t.e.Kind == event.Recv || t.e.Kind == event.Drop {
				k := sendKey{t.e.Other, t.e.MsgID}
				if sends[k] && !replayed[k] {
					continue // its send has not been replayed yet
				}
			}
			if best == -1 || t.abs < bestAbs {
				best, bestAbs = i, t.abs
			}
		}
		if best == -1 {
			// Every head blocked: possible only on a truncated trace.
			// Replay the earliest anyway rather than dropping history.
			best = forced
		}
		t := queues[best][heads[best]]
		heads[best]++
		cur = t.abs
		e := t.e
		switch e.Kind {
		case event.Start:
			rec.RecordStart(e.Proc)
		case event.Send:
			k := sendKey{e.Proc, e.MsgID}
			rec.RecordSend(e.Proc, e.Other, rid(k), e.Label)
			replayed[k] = true
		case event.Recv:
			rec.RecordRecv(e.Other, e.Proc, rid(sendKey{e.Other, e.MsgID}), e.Label)
		case event.Drop:
			rec.RecordDrop(e.Other, e.Proc, rid(sendKey{e.Other, e.MsgID}), e.Label)
		case event.InstallView:
			rec.RecordInstall(e.Proc, e.Ver, e.Members)
		case event.Faulty:
			rec.RecordInternalLevel(e.Proc, e.Kind, e.Other, e.Level)
		default:
			rec.RecordInternal(e.Proc, e.Kind, e.Other)
		}
	}
	return rec, nil
}

// mprocSizes parses -scale-mproc-ns.
func mprocSizes() []int {
	if mprocNs == "" {
		return nil
	}
	var ns []int
	for _, f := range strings.Split(mprocNs, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 3 {
			fmt.Fprintf(os.Stderr, "scale: ignoring multi-process group size %q\n", f)
			continue
		}
		ns = append(ns, n)
	}
	return ns
}

// mprocPerf runs the multi-process arms and appends them to the scale
// report.
func mprocPerf(rep *scaleReport) {
	sizes := mprocSizes()
	if len(sizes) == 0 {
		return
	}
	fmt.Printf("-- multi-process arms: one OS process per member, beacons on UDP, protocol on TCP (GOMAXPROCS=%d) --\n", runtime.GOMAXPROCS(0))
	specs := []mprocArmSpec{
		{topoName: fmt.Sprintf("ring-%d", scaleK), topoSpec: fmt.Sprintf("ring:%d", scaleK)},
		{topoName: strings.ReplaceAll(mprocHier, ":", "-"), topoSpec: mprocHier},
	}
	for _, n := range sizes {
		for _, spec := range specs {
			arm, err := runMprocArm(n, spec)
			if err != nil {
				fmt.Fprintf(os.Stderr, "mproc arm n=%d %s: %v\n", n, spec.topoName, err)
				continue
			}
			rep.Arms = append(rep.Arms, arm)
			fmt.Printf("n=%-4d %-10s beacons/s=%-8.0f conns=%-5d excl=%-6.0fms susp-frames=%-5d false=%d GMP=%v\n",
				arm.N, arm.Topology, arm.BeaconsPerSec, arm.ConnsOpen,
				arm.ExclMs, arm.SuspicionFrames, arm.FalseSuspects, arm.CheckerOK)
		}
	}
}
