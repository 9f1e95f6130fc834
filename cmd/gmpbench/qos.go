// E22: hostile-timing QoS battery for the failure-detection stack. The
// experiment drives the three timing regimes that actually produced the
// false-suspicion cascade (§4.3) in earlier versions of the live runtime
// — links flapping right at the detection threshold, stall-and-recover
// freezes (the GC-pause profile, injected with
// transport.Chaos.StallProcess so §2.1's reliable channels hold), and a
// coordinated churn storm of one site rebirthing as fast as the group
// will let it — against the fixed 20ms timeout at each hysteresis dwell,
// with the readmission governor metering the rebirth storms. Scored in
// the Chen/Toueg QoS vocabulary: detection time (real kills), mistake
// rate and mistake duration (threshold crossings that recover — the peer
// proved itself alive, so the crossing was wrong by construction). The
// output is a Pareto sweep: hysteresis buys mistakes down at a measured
// detection-latency premium, and the experiment certifies the premium
// stays within the acceptance bound on the clean-kill path.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"procgroup/internal/fd"
	"procgroup/internal/ids"
	"procgroup/internal/live"
	"procgroup/internal/transport"
)

var (
	qosOut       string
	qosWindow    time.Duration
	qosKills     int
	qosScenarios string
)

func qosFlags() {
	flag.StringVar(&qosOut, "qos-out", "", "write the qos experiment's results as standalone JSON to this path")
	flag.DurationVar(&qosWindow, "qos-window", 2*time.Second, "hostile-phase length per arm (flap/stall/churn observation window)")
	flag.IntVar(&qosKills, "qos-kills", 3, "clean-kill cycles per arm (detection-latency samples)")
	flag.StringVar(&qosScenarios, "qos-scenarios", "clean,flap,stall,churn", "comma-separated scenario subset to run")
}

const (
	qosHeartbeat    = 2 * time.Millisecond
	qosSuspectAfter = 20 * time.Millisecond
	// qosDetector names the one detector every arm runs: the fixed
	// timeout at qosSuspectAfter, wrapped at each hysteresis setting.
	qosDetector = "fixed-20ms"
	// The flap profile sits right at the detection threshold: during the
	// last 22ms of every 60ms period the victim's links drop everything,
	// so a 20ms threshold crosses ~2ms before each burst ends — the
	// worst-case phase for a dwell-free detector.
	qosFlapEvery = 60 * time.Millisecond
	qosFlapFor   = 22 * time.Millisecond
	// The stall profile freezes the victim's wire (frames held, then
	// thawed in order — §2.1 intact) for 30ms every 250ms: silence 10ms
	// past the threshold, then instant recovery.
	qosStallEvery = 250 * time.Millisecond
	qosStallFor   = 30 * time.Millisecond
	// Governor policy for the rebirth storms: one readmission per
	// 300ms per site after the burst token.
	qosReadmitMin = 300 * time.Millisecond
	// qosMaxRegression bounds the detection-latency premium the headline
	// hysteresis setting may cost on the clean-kill path.
	qosMaxRegression = 1.5
)

// qosHystSettings is the experiment's one axis. hyst-off is the
// measurement-only passthrough (Dwell 0 changes no behavior but still
// counts crossings and mistakes); hyst-2ms is the headline setting the
// clean-kill regression gate certifies; hyst-16ms is the deep-dwell end
// of the Pareto front, sized to absorb the stall profile outright
// (crossing lifetime stallFor−suspectAfter = 10ms < 16ms).
func qosHystSettings() []struct {
	name  string
	dwell time.Duration
} {
	return []struct {
		name  string
		dwell time.Duration
	}{
		{"hyst-off", 0},
		{"hyst-2ms", 2 * time.Millisecond},
		{"hyst-16ms", 16 * time.Millisecond},
	}
}

// qosArm is one (scenario, hysteresis) cell.
type qosArm struct {
	Scenario   string `json:"scenario"`
	Detector   string `json:"detector"`
	Hysteresis string `json:"hysteresis"`

	// Kill-detection samples (clean and churn scenarios; 0 kills in the
	// flap and stall scenarios, where nobody actually dies).
	Kills        int     `json:"kills"`
	MeanDetectMs float64 `json:"mean_detect_ms"`
	MaxDetectMs  float64 `json:"max_detect_ms"`

	// Detector-level QoS, summed over every node via the shared
	// hysteresis stats. A mistake is a crossing that recovered — the
	// peer proved itself alive, so surfacing it would have been wrong.
	// Beware the survivorship inversion: with hysteresis off a crossing
	// surfaces instantly, the innocent peer is excluded, its detector
	// state is pruned, and the crossing never lives to recover — so the
	// WORST configurations report the FEWEST detector-level mistakes.
	// The group-level damage of a surfaced mistake is Reconfigs: in the
	// flap and stall scenarios nobody actually dies, so every
	// reconfiguration there is cascade fallout.
	Crossings      uint64  `json:"crossings"`
	Confirms       uint64  `json:"confirms"`
	Mistakes       uint64  `json:"mistakes_absorbed"`
	MistakeRate    float64 `json:"mistakes_absorbed_per_sec"`
	MeanMistakeMs  float64 `json:"mean_mistake_ms"`
	Reconfigs      int     `json:"reconfigurations"`
	Admissions     int     `json:"victim_admissions"`
	Deferred       int64   `json:"readmissions_deferred"`
	RateLimitOk    bool    `json:"rate_limit_ok"`
	Survivors      int     `json:"survivors"`
	WindowActualMs float64 `json:"window_ms"`
	// Lost marks an arm whose closing convergence failed: the group
	// never again agreed on one view, so Reconfigs is unknown rather
	// than zero and the arm is kept off the Pareto fronts.
	Lost bool `json:"lost"`
}

// qosReport is the BENCH_fd.json schema.
type qosReport struct {
	GeneratedBy  string   `json:"generated_by"`
	Env          benchEnv `json:"env"`
	HeartbeatMs  float64  `json:"heartbeat_ms"`
	SuspectMs    float64  `json:"fixed_suspect_after_ms"`
	WindowMs     float64  `json:"window_ms"`
	KillsPerArm  int      `json:"kills_per_arm"`
	ReadmitMinMs float64  `json:"readmit_min_interval_ms"`
	Arms         []qosArm `json:"arms"`
	// Pareto lists, per hostile scenario, the hysteresis settings
	// not dominated on (clean-kill detect time, wrongful
	// reconfigurations): every config outside the list is both slower to
	// detect a real kill and costs the group more cascade fallout than
	// something inside it. Churn is excluded — its reconfigurations are
	// real kills, and its verdict is the governor's rate-limit instead.
	// Lost arms are never on a front.
	Pareto map[string][]string `json:"pareto"`
	// CleanRegression is mean clean-kill detect time at the headline
	// dwell over the same timeout with hysteresis off, measured within
	// this run from two unlost arms that finished every kill; the
	// acceptance bound is 1.5.
	CleanRegression   float64 `json:"clean_regression_ratio"`
	CleanRegressionOk bool    `json:"clean_regression_ok"`
	// FlapRateLimitOk aggregates rate_limit_ok over every governed arm.
	FlapRateLimitOk bool `json:"flap_rate_limit_ok"`
}

func qosLabel(hyst string) string { return qosDetector + "/" + hyst }

// runQoSArm boots a 5-node live group with the fixed timeout wrapped in
// the given hysteresis setting over a chaos transport, runs the scenario,
// and reads the arm's QoS off the shared hysteresis stats.
func runQoSArm(scenario, hystName string, dwell time.Duration, seed int64) (qosArm, error) {
	arm := qosArm{Scenario: scenario, Detector: qosDetector, Hysteresis: hystName}
	stats := &fd.HysteresisStats{}
	tr := transport.NewChaos(transport.NewInmem(), transport.ChaosOptions{Seed: seed})
	governed := scenario == "flap" || scenario == "churn"
	opts := live.Options{
		N:              5,
		HeartbeatEvery: qosHeartbeat,
		SuspectAfter:   qosSuspectAfter,
		Detector: fd.NewHysteresisFactory(fd.NewTimeoutFactory(qosSuspectAfter), fd.HysteresisOptions{
			Dwell: dwell, FlapPenalty: 1, Stats: stats,
		}),
		Transport: tr,
	}
	if governed {
		opts.Readmit = live.ReadmitPolicy{MinInterval: qosReadmitMin, Burst: 1}
	}
	c := live.Start(opts)
	defer c.Stop()
	if _, err := c.WaitConverged(10 * time.Second); err != nil {
		return arm, fmt.Errorf("bootstrap: %w", err)
	}

	started := time.Now()
	var detects []time.Duration
	switch scenario {
	case "clean":
		detects = qosCleanKills(c)
	default:
		arm.Admissions = qosHostilePhase(c, tr, scenario, &detects)
	}
	arm.WindowActualMs = float64(time.Since(started)) / float64(time.Millisecond)

	// Heal and settle so the survivor count and reconfiguration tally are
	// read from a quiescent group.
	if v, err := c.WaitConverged(10 * time.Second); err == nil {
		arm.Reconfigs = int(v.Version())
	} else {
		arm.Lost = true
	}
	arm.Survivors = len(c.Running())
	arm.Deferred = c.ReadmitDeferred()

	arm.Kills = len(detects)
	if len(detects) > 0 {
		var sum, max time.Duration
		for _, d := range detects {
			sum += d
			if d > max {
				max = d
			}
		}
		arm.MeanDetectMs = float64(sum/time.Duration(len(detects))) / float64(time.Millisecond)
		arm.MaxDetectMs = float64(max) / float64(time.Millisecond)
	}
	arm.Crossings = stats.Crossings.Load()
	arm.Confirms = stats.Confirms.Load()
	arm.Mistakes = stats.Mistakes.Load()
	if secs := float64(arm.WindowActualMs) / 1000; secs > 0 {
		arm.MistakeRate = float64(arm.Mistakes) / secs
	}
	arm.MeanMistakeMs = float64(stats.MeanMistake()) / float64(time.Millisecond)

	// The governor's ceiling: the burst token plus one refill per
	// MinInterval over the hostile window, plus one for an admission
	// whose grant was open when the window closed.
	arm.RateLimitOk = true
	if governed {
		ceiling := 1 + int(qosWindow/qosReadmitMin) + 1
		arm.RateLimitOk = arm.Admissions <= ceiling
	}
	return arm, nil
}

// qosCleanKills measures the real-kill path: kill the most junior
// non-coordinator, time kill→converged exclusion, rejoin, repeat.
func qosCleanKills(c *live.Cluster) []time.Duration {
	var detects []time.Duration
	inc := uint32(0)
	for cycle := 0; cycle < qosKills; cycle++ {
		v, err := c.WaitConverged(10 * time.Second)
		if err != nil {
			return detects
		}
		running := c.Running()
		victim := ids.Nil
		for i := len(running) - 1; i >= 0; i-- {
			if running[i] != v.Mgr() {
				victim = running[i]
				break
			}
		}
		if victim.IsNil() {
			return detects
		}
		start := time.Now()
		c.Kill(victim)
		if _, err := c.WaitConverged(10 * time.Second); err != nil {
			return detects
		}
		detects = append(detects, time.Since(start))
		inc++
		reborn := ids.ProcID{Site: victim.Site, Incarnation: victim.Incarnation + inc}
		c.Join(reborn, c.Running()[0])
		if _, err := c.WaitConverged(10 * time.Second); err != nil {
			return detects
		}
		// Let the reborn member settle before the next cycle so every
		// kill is timed from a steady group, not from its admission.
		time.Sleep(100 * qosHeartbeat)
	}
	return detects
}

// qosHostilePhase drives one victim site through the scenario's hostile
// timing for qosWindow while a rejoin driver keeps the site coming back
// under fresh incarnations (the readmission governor metering it when
// enabled). Returns the number of committed readmissions; churn kills
// append their detection latencies to detects.
func qosHostilePhase(c *live.Cluster, tr *transport.Chaos, scenario string, detects *[]time.Duration) int {
	victimSite := "p5"
	victim := ids.Named(victimSite)
	if scenario == "flap" {
		qosApplyFlap(tr, c, victim)
	}
	admissions := 0
	nextStall := time.Now()
	settleUntil := time.Now()
	var killedAt time.Time
	joining := false
	deadline := time.Now().Add(qosWindow)
	for time.Now().Before(deadline) {
		time.Sleep(qosHeartbeat)
		contact := ids.Nil
		for _, r := range c.Running() {
			if r.Site != victimSite {
				contact = r
				break
			}
		}
		if contact.IsNil() {
			break // the hostile phase cost the group every other member
		}
		v := c.ViewOf(contact)
		if v == nil {
			continue
		}
		inView := v.Has(victim)
		running := false
		for _, r := range c.Running() {
			if r == victim {
				running = true
				break
			}
		}
		switch {
		case joining && inView:
			admissions++
			joining = false
			settleUntil = time.Now().Add(50 * time.Millisecond)
		case !joining && !inView && !running:
			// Quit (mistaken exclusion, §4.3 self-quit, or our own kill
			// committed): rebirth under the next incarnation.
			if !killedAt.IsZero() {
				*detects = append(*detects, time.Since(killedAt))
				killedAt = time.Time{}
			}
			victim = ids.ProcID{Site: victimSite, Incarnation: victim.Incarnation + 1}
			if scenario == "flap" {
				qosApplyFlap(tr, c, victim)
			}
			c.Join(victim, contact)
			joining = true
		case !joining && inView && running:
			switch scenario {
			case "stall":
				if now := time.Now(); now.After(nextStall) {
					tr.StallProcess(victim, qosStallFor)
					nextStall = now.Add(qosStallEvery)
				}
			case "churn":
				if killedAt.IsZero() && time.Now().After(settleUntil) {
					killedAt = time.Now()
					c.Kill(victim)
				}
			}
		}
	}
	// Heal the victim's links so the closing convergence isn't fighting
	// the chaos profile.
	if scenario == "flap" {
		for _, r := range append(c.Running(), victim) {
			if r.Site != victimSite {
				tr.SetLinkBoth(victim, r, transport.ChaosLink{})
			}
		}
	}
	return admissions
}

// qosApplyFlap points the burst-outage profile at every link touching the
// victim's current incarnation. Chaos links are keyed by ProcID, so each
// rebirth needs the profile re-applied.
func qosApplyFlap(tr *transport.Chaos, c *live.Cluster, victim ids.ProcID) {
	flap := transport.ChaosLink{BurstEvery: qosFlapEvery, BurstFor: qosFlapFor}
	for _, r := range c.Running() {
		if r.Site != victim.Site {
			tr.SetLinkBoth(victim, r, flap)
		}
	}
}

func qosScenarioList() []string {
	var out []string
	for _, s := range strings.Split(qosScenarios, ",") {
		if s = strings.TrimSpace(s); s != "" {
			out = append(out, s)
		}
	}
	return out
}

func qosPerf(seed int64) {
	fmt.Println("== E22 · hostile-timing QoS battery: fixed timeout × hysteresis under flap / stall / churn, readmission governed ==")
	rep := qosReport{
		GeneratedBy:  "gmpbench -exp qos",
		Env:          captureEnv(),
		HeartbeatMs:  float64(qosHeartbeat) / float64(time.Millisecond),
		SuspectMs:    float64(qosSuspectAfter) / float64(time.Millisecond),
		WindowMs:     float64(qosWindow) / float64(time.Millisecond),
		KillsPerArm:  qosKills,
		ReadmitMinMs: float64(qosReadmitMin) / float64(time.Millisecond),
		Pareto:       map[string][]string{},
	}

	byKey := map[string]qosArm{} // scenario|label
	scenarios := qosScenarioList()
	for _, scenario := range scenarios {
		for _, hyst := range qosHystSettings() {
			arm, err := runQoSArm(scenario, hyst.name, hyst.dwell, seed)
			if err != nil {
				fmt.Fprintf(os.Stderr, "qos arm %s %s: %v\n", scenario, qosLabel(hyst.name), err)
				continue
			}
			rep.Arms = append(rep.Arms, arm)
			byKey[scenario+"|"+qosLabel(hyst.name)] = arm
		}
	}

	w := tw()
	fmt.Fprintln(w, "scenario\tdetector\thysteresis\tkills\tmean det (ms)\tcrossings\tabsorbed\tmean mistake (ms)\treconfigs\tsurvivors\tadmitted\tdeferred\trate-limit")
	lost := 0
	for _, a := range rep.Arms {
		reconfigs := fmt.Sprint(a.Reconfigs)
		if a.Lost {
			reconfigs = "LOST"
			lost++
		}
		rl := "-"
		if a.Scenario == "flap" || a.Scenario == "churn" {
			rl = "ok"
			if !a.RateLimitOk {
				rl = "EXCEEDED"
			}
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%d\t%.1f\t%d\t%d\t%.1f\t%s\t%d\t%d\t%d\t%s\n",
			a.Scenario, a.Detector, a.Hysteresis, a.Kills, a.MeanDetectMs,
			a.Crossings, a.Mistakes, a.MeanMistakeMs, reconfigs, a.Survivors,
			a.Admissions, a.Deferred, rl)
	}
	w.Flush()
	fmt.Printf("lost groups: %d of %d arms\n", lost, len(rep.Arms))

	// Pareto per hostile scenario: x = the config's clean-kill detection
	// time (its real-kill cost), y = the wrongful reconfigurations the
	// hostile profile extracted from it (nobody dies under flap or
	// stall, so every view change there is cascade fallout). A config is
	// dominated when another is ≤ on both and < on one.
	for _, scenario := range scenarios {
		if scenario == "clean" || scenario == "churn" {
			continue
		}
		type pt struct {
			label string
			x, y  float64
		}
		var pts []pt
		for _, hyst := range qosHystSettings() {
			label := qosLabel(hyst.name)
			hostile, ok := byKey[scenario+"|"+label]
			if !ok || hostile.Lost {
				continue
			}
			clean := byKey["clean|"+label]
			x := float64(qosSuspectAfter+hyst.dwell) / float64(time.Millisecond)
			if clean.Kills > 0 {
				x = clean.MeanDetectMs
			}
			pts = append(pts, pt{label, x, float64(hostile.Reconfigs)})
		}
		for _, p := range pts {
			dominated := false
			for _, q := range pts {
				if q.label != p.label && q.x <= p.x && q.y <= p.y && (q.x < p.x || q.y < p.y) {
					dominated = true
					break
				}
			}
			if !dominated {
				rep.Pareto[scenario] = append(rep.Pareto[scenario], p.label)
			}
		}
		fmt.Printf("pareto[%s]: %v\n", scenario, rep.Pareto[scenario])
	}

	// The clean-kill regression gate: the headline dwell against the
	// unwrapped timeout, within this run. Both arms must have kept their
	// group and finished every kill, or the ratio compares partial runs.
	base := byKey["clean|"+qosLabel("hyst-off")]
	head := byKey["clean|"+qosLabel("hyst-2ms")]
	whole := func(a qosArm) bool { return !a.Lost && a.Kills == qosKills }
	if whole(base) && whole(head) && base.MeanDetectMs > 0 {
		rep.CleanRegression = head.MeanDetectMs / base.MeanDetectMs
		rep.CleanRegressionOk = rep.CleanRegression <= qosMaxRegression
		fmt.Printf("clean-kill regression (%s hyst-2ms / hyst-off): %.2fx (bound %.1fx) ok=%v\n",
			qosDetector, rep.CleanRegression, qosMaxRegression, rep.CleanRegressionOk)
	}

	rep.FlapRateLimitOk = true
	governedArms := 0
	for _, a := range rep.Arms {
		if a.Scenario == "flap" || a.Scenario == "churn" {
			governedArms++
			rep.FlapRateLimitOk = rep.FlapRateLimitOk && a.RateLimitOk
		}
	}
	if governedArms > 0 {
		fmt.Printf("readmission rate-limit honored across %d governed arms: %v\n", governedArms, rep.FlapRateLimitOk)
	}
	fmt.Println("note: 'absorbed' counts crossings the dwell held until the peer proved itself alive —")
	fmt.Println("      each one a wrongful exclusion that did not happen (with hysteresis off they")
	fmt.Println("      surface as reconfigs instead, which is why the off arms absorb ~0). Hysteresis")
	fmt.Println("      buys fallout down for a bounded clean-kill premium; the governor caps how fast")
	fmt.Println("      a flapping site can bill the survivors for the mistakes that still surface.")

	if qosOut == "" {
		return
	}
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err == nil {
		err = os.WriteFile(qosOut, append(blob, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "qos report:", err)
		return
	}
	fmt.Println("wrote", qosOut)
}
