// gmpbench regenerates every table and figure of the paper's evaluation as
// text. Its output is the source of record for EXPERIMENTS.md.
//
// Usage:
//
//	gmpbench              # run everything
//	gmpbench -exp table1  # one experiment: table1, complexity, worstcase,
//	                      # figures, claims, churn, cuts, ablation,
//	                      # saturation, qos, scale, kv (others exit 2)
//	gmpbench -seed 7      # change the schedule seed
//	gmpbench -exp saturation -transport-out BENCH_transport.json
//	                      # E18 detector quality per wire plane, machine-readable
//	gmpbench -exp qos -qos-out BENCH_fd.json
//	                      # E22 detector QoS under hostile timing
//	gmpbench -exp scale -scale-out BENCH_scale.json
//	                      # E17 monitoring-topology sweep (Full vs RingK)
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"slices"
	"strings"
	"text/tabwriter"

	"procgroup/internal/experiments"
	"procgroup/internal/sim"
)

func main() {
	// `gmpbench member` is the E19 scale harness's per-member process:
	// this same binary, re-executed once per group member.
	if len(os.Args) > 1 && os.Args[1] == "member" {
		os.Exit(runMember(os.Args[2:]))
	}
	forceMultiProc()
	exps := []struct {
		name string
		fn   func(int64)
	}{
		{"table1", table1},
		{"complexity", complexity},
		{"worstcase", worstCase},
		{"figures", figures},
		{"claims", claims},
		{"churn", churn},
		{"cuts", cuts},
		{"ablation", ablation},
		{"saturation", satPerf},
		{"qos", qosPerf},
		{"scale", scalePerf},
		{"kv", kvPerf},
	}
	names := []string{"all"}
	for _, e := range exps {
		names = append(names, e.name)
	}
	exp := flag.String("exp", "all", "experiment to run: "+strings.Join(names, ", "))
	seed := flag.Int64("seed", 1, "schedule seed")
	scaleFlags()
	mprocFlags()
	satFlags()
	kvFlags()
	qosFlags()
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this path")
	flag.Parse()
	if !slices.Contains(names, *exp) {
		fmt.Fprintf(os.Stderr, "gmpbench: unknown experiment %q; valid: %s\n", *exp, strings.Join(names, ", "))
		os.Exit(2)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	for _, e := range exps {
		if *exp == "all" || *exp == e.name {
			e.fn(*seed)
			fmt.Println()
		}
	}
}

func tw() *tabwriter.Writer {
	return tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
}

func table1(seed int64) {
	fmt.Println("== E1 · Table 1 (§4.2): multiple reconfiguration initiations ==")
	w := tw()
	fmt.Fprintln(w, "p actual\tq thinks p\tq initiates\tp initiates\tnew Mgr\tGMP")
	for _, r := range experiments.Table1(seed) {
		verdict := "ok"
		if !r.CheckerOK {
			verdict = "VIOLATED"
		}
		fmt.Fprintf(w, "%s\t%s\t%v\t%v\t%v\t%s\n",
			r.PActual, r.QThinksP, yn(r.QInitiated), yn(r.PInitiated), r.NewMgr, verdict)
	}
	w.Flush()
	fmt.Println("paper:  (No, Yes) (Eventually, No) (Yes, Yes) (Yes, No)")
}

func yn(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

func complexity(seed int64) {
	fmt.Println("== E2/E3/E4/E6/E12 · §7.2 message complexity (measured vs paper formula) ==")
	w := tw()
	fmt.Fprintln(w, "n\t2-phase excl\t=3n−5\treconfig\t=5n−9\tcompressed stream\t=(n−1)²\tplain stream\tsymmetric\t=(n−1)²\t1-phase\t=n−2")
	for _, n := range []int{4, 8, 16, 32, 64} {
		tp, tpPaper := experiments.TwoPhaseCost(n, seed)
		rc, rcPaper := experiments.ReconfigCost(n, seed)
		cs, csPaper := experiments.CompressedStreamCost(n, seed)
		ps, _ := experiments.PlainStreamCost(n, seed)
		sy, syPaper := experiments.SymmetricCost(n, seed)
		op, opPaper := experiments.OnePhaseCost(n, seed)
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
			n, tp, tpPaper, rc, rcPaper, cs, csPaper, ps, sy, syPaper, op, opPaper)
	}
	w.Flush()
	fmt.Println("note: symmetric/GMP ratio exceeds 10× from n≈32 — the paper's \"order of magnitude\".")
}

func worstCase(seed int64) {
	fmt.Println("== E5 · §7.2 worst case: τ successive failed reconfigurations (O(n²)) ==")
	w := tw()
	fmt.Fprintln(w, "n\tτ attempts\treconfig msgs\tsingle reconfig (5n−9)\tratio")
	for _, n := range []int{8, 16, 32, 64} {
		total, tau, err := experiments.WorstCaseChain(n, seed)
		if err != nil {
			fmt.Fprintf(w, "%d\terror: %v\n", n, err)
			continue
		}
		single, _ := experiments.ReconfigCost(n, seed)
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%.1f×\n", n, tau, total, single, float64(total)/float64(single))
	}
	w.Flush()
	fmt.Println("note: the ratio grows with n — quadratic total, matching the paper's O(|Sys|²).")
}

func figures(seed int64) {
	fmt.Println("== E7/E9 · Figures 3 and 7: interrupted and invisible commits ==")
	for _, v := range []experiments.Verdict{
		experiments.Figure3(seed + 21),
		experiments.Figure7(seed + 23),
	} {
		fmt.Printf("%-36s GMP=%v  %s\n", v.Name, v.CheckerOK, v.Detail)
	}
}

func claims(seed int64) {
	fmt.Println("== E10/E11 · §7.3 impossibility claims ==")
	v71 := experiments.Claim71(seed + 30)
	fmt.Printf("%-44s GMP=%v  %s\n", v71.Name, v71.CheckerOK, v71.Detail)
	two, three := experiments.Claim72(seed + 50)
	fmt.Printf("%-44s GMP=%v  %s\n", two.Name, two.CheckerOK, two.Detail)
	fmt.Printf("%-44s GMP=%v  %s\n", three.Name, three.CheckerOK, three.Detail)
	fmt.Println("paper: one- and two-phase protocols cannot solve GMP; three phases suffice.")
}

func churn(seed int64) {
	fmt.Println("== E13 · §7: online stream of joins and exclusions ==")
	v, msgs := experiments.Churn(seed + 60)
	fmt.Printf("%-36s GMP=%v  %s (%d protocol msgs)\n", v.Name, v.CheckerOK, v.Detail, msgs)
}

func cuts(seed int64) {
	fmt.Println("== E14 · Theorem 6.1: consistent-cut structure of the view sequence ==")
	v := experiments.CutAnalysis(seed + 70)
	fmt.Printf("%-36s GMP=%v  %s\n", v.Name, v.CheckerOK, v.Detail)
}

func ablation(seed int64) {
	fmt.Println("== Ablations: the knobs the paper leaves abstract ==")

	fmt.Println("-- failure-detection latency vs. time to agreement (n=6, ticks) --")
	w := tw()
	fmt.Fprintln(w, "FD latency\texclusion crash→view\treconfig crash→view")
	for _, p := range experiments.DetectionLatencySweep(6, seed, []sim.Time{5, 20, 80, 320}) {
		fmt.Fprintf(w, "%d\t%d\t%d\n", p.DetectDelay, p.ExclusionTime, p.ReconfigTime)
	}
	w.Flush()
	fmt.Println("note: agreement time tracks the detector; the protocol itself never waits on clocks (§2.2).")

	fmt.Println("-- fault-tolerance regimes (n=8) --")
	w = tw()
	fmt.Fprintln(w, "mode\tcrashes\tconverged\tfinal view size\tblocked safely")
	for _, r := range experiments.FaultToleranceAblation(8, seed) {
		fmt.Fprintf(w, "%s\t%d\t%v\t%d\t%v\n", r.Mode, r.Crashes, r.Converged, r.FinalViewSize, r.SurvivorsBlocked)
	}
	w.Flush()
	fmt.Println("paper: the basic algorithm tolerates |Memb|−1 failures (§3.1 Remarks);")
	fmt.Println("       the final algorithm trades that for coordinator fault-tolerance and")
	fmt.Println("       blocks once a majority is lost (§4.3).")

	comp, plain, err := experiments.CompressionAblation(10, seed)
	if err != nil {
		fmt.Println("compression ablation failed:", err)
		return
	}
	fmt.Printf("-- §3.1 round compression (n=10, 3-exclusion burst) --\n")
	fmt.Printf("compressed: %d msgs   plain two-phase: %d msgs   saving: %d\n", comp, plain, plain-comp)
}
