// Benchmarks regenerating the paper's evaluation, one per table/figure of
// DESIGN.md's experiment index. Message counts are exact and deterministic;
// they are reported as custom metrics (msgs, paper_msgs) alongside ns/op,
// which measures the simulator's wall-clock cost for the schedule.
//
// Run with: go test -bench=. -benchmem
package procgroup_test

import (
	"fmt"
	"testing"
	"time"

	"procgroup"
	"procgroup/internal/experiments"
)

// reportPair publishes measured-vs-paper message counts for a bench.
func reportPair(b *testing.B, measured, paper int) {
	b.ReportMetric(float64(measured), "msgs")
	b.ReportMetric(float64(paper), "paper_msgs")
	if measured != paper {
		b.Fatalf("measured %d messages, paper predicts %d", measured, paper)
	}
}

// BenchmarkTable1Scenarios is E1: the four initiation scenarios of Table 1.
func BenchmarkTable1Scenarios(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1(21)
		if len(rows) != 4 {
			b.Fatal("table 1 incomplete")
		}
		for r, row := range rows {
			if !row.CheckerOK {
				b.Fatalf("row %d violates GMP", r+1)
			}
		}
	}
}

// BenchmarkExclusionTwoPhase is E2: the plain two-phase exclusion, 3n−5
// messages (§7.2 best case 1, Figs. 1–2).
func BenchmarkExclusionTwoPhase(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var m, p int
			for i := 0; i < b.N; i++ {
				m, p = experiments.TwoPhaseCost(n, 1)
			}
			reportPair(b, m, p)
		})
	}
}

// BenchmarkExclusionCompressedStream is E3/E6: n−1 compressed exclusions,
// (n−1)² messages total (§7.2 best case 2).
func BenchmarkExclusionCompressedStream(b *testing.B) {
	for _, n := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var m, p int
			for i := 0; i < b.N; i++ {
				m, p = experiments.CompressedStreamCost(n, 1)
			}
			reportPair(b, m, p)
		})
	}
}

// BenchmarkExclusionPlainStream is the E6 comparison arm: the same stream
// without compression costs Σ(3m−5).
func BenchmarkExclusionPlainStream(b *testing.B) {
	for _, n := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var m, p int
			for i := 0; i < b.N; i++ {
				m, p = experiments.PlainStreamCost(n, 1)
			}
			reportPair(b, m, p)
		})
	}
}

// BenchmarkReconfiguration is E4: one coordinator replacement, 5n−9
// messages (§7.2 best case 3, Figs. 5–6).
func BenchmarkReconfiguration(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var m, p int
			for i := 0; i < b.N; i++ {
				m, p = experiments.ReconfigCost(n, 1)
			}
			reportPair(b, m, p)
		})
	}
}

// BenchmarkWorstCaseReconfigurationChain is E5: τ successive failed
// reconfigurations, O(n²) messages (§7.2 worst case).
func BenchmarkWorstCaseReconfigurationChain(b *testing.B) {
	for _, n := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var msgs int
			for i := 0; i < b.N; i++ {
				m, _, err := experiments.WorstCaseChain(n, 1)
				if err != nil {
					b.Fatal(err)
				}
				msgs = m
			}
			b.ReportMetric(float64(msgs), "msgs")
			b.ReportMetric(float64(n*n), "n²")
		})
	}
}

// BenchmarkFigure3Recovery is E7: repair after a commit interrupted by the
// coordinator's crash.
func BenchmarkFigure3Recovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if v := experiments.Figure3(22); !v.CheckerOK {
			b.Fatalf("figure 3 run violated GMP: %s", v.Detail)
		}
	}
}

// BenchmarkFigure7InvisibleCommit is E9: detection and propagation of a
// commit whose only witnesses died.
func BenchmarkFigure7InvisibleCommit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if v := experiments.Figure7(24); !v.CheckerOK {
			b.Fatalf("figure 7 run violated GMP: %s", v.Detail)
		}
	}
}

// BenchmarkClaim71OnePhase is E11: the one-phase strawman must violate
// GMP-3 on the cross-suspicion schedule.
func BenchmarkClaim71OnePhase(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if v := experiments.Claim71(31); v.CheckerOK {
			b.Fatal("one-phase protocol unexpectedly satisfied GMP")
		}
	}
}

// BenchmarkClaim72TwoPhase is E10: two-phase reconfiguration fails on the
// Figure 11 schedule that three-phase survives.
func BenchmarkClaim72TwoPhase(b *testing.B) {
	for i := 0; i < b.N; i++ {
		two, three := experiments.Claim72(51)
		if two.CheckerOK {
			b.Fatal("two-phase reconfiguration unexpectedly satisfied GMP")
		}
		if !three.CheckerOK {
			b.Fatal("three-phase control violated GMP")
		}
	}
}

// BenchmarkSymmetricBaseline is E12: the Bruso-style symmetric protocol
// pays (n−1)² messages per exclusion where GMP pays 3n−5.
func BenchmarkSymmetricBaseline(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var m, p int
			for i := 0; i < b.N; i++ {
				m, p = experiments.SymmetricCost(n, 1)
			}
			reportPair(b, m, p)
			gmp := 3*n - 5
			b.ReportMetric(float64(m)/float64(gmp), "×GMP")
		})
	}
}

// BenchmarkOnlineChurn is E13: the fully online join/exclusion stream.
func BenchmarkOnlineChurn(b *testing.B) {
	var msgs int
	for i := 0; i < b.N; i++ {
		v, m := experiments.Churn(61)
		if !v.CheckerOK {
			b.Fatalf("churn run violated GMP: %s", v.Detail)
		}
		msgs = m
	}
	b.ReportMetric(float64(msgs), "msgs")
}

// BenchmarkCutConstruction is E14: building and verifying the Theorem 6.1
// cut structure over a busy trace.
func BenchmarkCutConstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if v := experiments.CutAnalysis(71); !v.CheckerOK {
			b.Fatalf("cut analysis failed: %s", v.Detail)
		}
	}
}

// BenchmarkLiveExclusionLatency measures end-to-end failure-to-agreement
// latency on the live goroutine runtime (no paper analogue; the authors'
// testbed is our simulator, this is the deployment-shaped number).
func BenchmarkLiveExclusionLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := procgroup.StartGroup(procgroup.GroupOptions{
			N:              5,
			HeartbeatEvery: 2 * time.Millisecond,
			SuspectAfter:   12 * time.Millisecond,
		})
		if _, err := g.WaitConverged(10 * time.Second); err != nil {
			g.Stop()
			b.Fatal(err)
		}
		start := time.Now()
		g.Kill(procgroup.Named("p5"))
		if _, err := g.WaitConverged(10 * time.Second); err != nil {
			g.Stop()
			b.Fatal(err)
		}
		b.ReportMetric(float64(time.Since(start).Microseconds()), "µs/exclusion")
		g.Stop()
	}
}

// BenchmarkSimulatorThroughput measures raw simulator speed: scheduler
// steps per second over a reconfiguration-heavy schedule.
func BenchmarkSimulatorThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sim := procgroup.NewSim(procgroup.SimOptions{N: 32, Seed: int64(i), Config: procgroup.DefaultConfig()})
		procs := sim.Initial()
		sim.CrashAt(procs[0], 50)
		sim.CrashAt(procs[31], 400)
		sim.Run()
	}
}

// BenchmarkTimeToViewQuiescence measures the live runtime's end-to-end
// view-agreement latency per transport: boot to the initial agreed view,
// then a member crash to the post-exclusion agreed view. It is the perf
// baseline for transport work — inmem is the floor (function-call
// delivery), twoplane pays the codec and loopback-socket tax on every
// channel.
func BenchmarkTimeToViewQuiescence(b *testing.B) {
	transports := []struct {
		name string
		make func() procgroup.Transport
	}{
		{"inmem", func() procgroup.Transport { return procgroup.NewInmemTransport() }},
		{"twoplane", func() procgroup.Transport { return procgroup.NewUDPBeaconTransport() }},
	}
	for _, tr := range transports {
		b.Run(tr.name, func(b *testing.B) {
			var bootTotal, exclTotal time.Duration
			for i := 0; i < b.N; i++ {
				start := time.Now()
				g := procgroup.StartGroup(procgroup.GroupOptions{
					N:              5,
					HeartbeatEvery: 2 * time.Millisecond,
					SuspectAfter:   20 * time.Millisecond,
					Transport:      tr.make(),
				})
				if _, err := g.WaitConverged(10 * time.Second); err != nil {
					g.Stop()
					b.Fatal(err)
				}
				bootTotal += time.Since(start)
				start = time.Now()
				g.Kill(procgroup.Named("p5"))
				if _, err := g.WaitConverged(10 * time.Second); err != nil {
					g.Stop()
					b.Fatal(err)
				}
				exclTotal += time.Since(start)
				g.Stop()
			}
			b.ReportMetric(float64(bootTotal.Microseconds())/float64(b.N), "µs/boot-quiesce")
			b.ReportMetric(float64(exclTotal.Microseconds())/float64(b.N), "µs/excl-quiesce")
		})
	}
}
