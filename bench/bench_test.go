package main

import (
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"procgroup/internal/transport"
)

// The runner's names are the contract: BENCHMARK.json must list exactly
// what spec.go defines, in order, and what a run prints.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	spec, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, spec.go %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, spec.go %q / %q", i, got, w.Name, w.Why)
		}
		if !name.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q breaks the naming limits", w.Name)
		}
	}
	seen := make(map[string]bool)
	for _, pair := range []struct {
		json, code []metricSpec
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(pair.json) != len(pair.code) {
			t.Fatalf("BENCHMARK.json lists %d metrics where spec.go has %d", len(pair.json), len(pair.code))
		}
		for i, m := range pair.code {
			if pair.json[i] != m {
				t.Errorf("metric %d: BENCHMARK.json has %+v, spec.go %+v", i, pair.json[i], m)
			}
			if !name.MatchString(m.Name) || seen[m.Name] || m.Bound > 0.25 {
				t.Errorf("metric %q is malformed, repeated, or bounded past 0.25", m.Name)
			}
			seen[m.Name] = true
		}
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
}

// Every workload, one second, traced — so with the order recorder and
// all three checkers on — must come out correct with nothing failed.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			if w.Churn && testing.Short() {
				t.Skip("one churn cycle is three seconds of timers")
			}
			r := execute(slowedUnderRace(w), 1, time.Second, true)
			for _, err := range r.errs {
				t.Error(err)
			}
			if r.acc.failed != 0 || r.failedEvents != 0 || r.wrongful != 0 {
				t.Errorf("%d ops and %d membership events failed, %d wrongful exclusions", r.acc.failed, r.failedEvents, r.wrongful)
			}
			// The traced state machine must forward rsm.LocalReader.
			if w.Name == "kv_mixed_lan" && (r.totals["localReads"] == 0 || r.totals["readFallbacks"] != 0) {
				t.Errorf("%v local reads, %v fell back to the sequenced path", r.totals["localReads"], r.totals["readFallbacks"])
			}
			if w.Churn && (len(r.churn.reconfig) == 0 || len(r.churn.exclusion) == 0 || len(r.churn.join) < 2) {
				t.Errorf("churn measured %d reconfigurations, %d exclusions, %d joins", len(r.churn.reconfig), len(r.churn.exclusion), len(r.churn.join))
			}
		})
	}
}

func slowedUnderRace(w workload) workload {
	if raceBuild {
		w.PutRate, w.ReadRate = w.PutRate/10, max(w.ReadRate/10, probeReadsPS)
	}
	return w
}

// A run reports exactly the metrics BENCHMARK.json names for its mode,
// no end-to-end metric is 0, and the exact counts are the paper's.
func TestResultNamesAreTheSpecs(t *testing.T) {
	w, _ := workloadByName("kv_put_wan")
	for _, traced := range []bool{false, true} {
		specs := endToEnd
		if traced {
			specs = perLayer
		}
		r := execute(slowedUnderRace(w), 1, time.Second, traced)
		for _, err := range r.errs {
			t.Errorf("traced=%v: %v", traced, err)
		}
		res := r.result()
		if len(res.Metrics) != len(specs) {
			t.Errorf("traced=%v: %d metrics reported, %d specified", traced, len(res.Metrics), len(specs))
		}
		for _, sp := range specs {
			m, ok := res.Metrics[sp.Name]
			if !ok || m.Unit != sp.Unit {
				t.Errorf("traced=%v: metric %s missing or in unit %q", traced, sp.Name, m.Unit)
			}
			if !traced && m.Value <= 0 {
				t.Errorf("end-to-end metric %s = %v; it must never be 0", sp.Name, m.Value)
			}
		}
		if traced {
			// §7.2 at n=5.
			for name, want := range map[string]float64{
				"core.msgs_per_exclusion": 3*groupSize - 5,
				"core.msgs_per_reconfig":  5*groupSize - 9,
			} {
				if got := res.Metrics[name].Value; got != want {
					t.Errorf("%s = %v, want %v", name, got, want)
				}
			}
		}
	}
}

// The wrappers must not change the code path they measure: with tracing
// on, live.Start must still be handed a beacon-planed transport.
func TestTracedTransportKeepsItsBeaconPlane(t *testing.T) {
	for _, w := range workloads {
		tr := newTransport(w, 1, newTracer())
		if _, ok := tr.(transport.BeaconPlaner); !ok {
			t.Errorf("%s: traced transport %T hides transport.BeaconPlaner", w.Name, tr)
		}
		tr.Close()
	}
}

// The counts among the micro-drives repeat bit for bit.
func TestMicroDriveCountsRepeat(t *testing.T) {
	if a, b := simJoinMessages(3), simJoinMessages(3); a != b || a == 0 {
		t.Errorf("core.msgs_per_join: %d then %d", a, b)
	}
}
