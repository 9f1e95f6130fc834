// Command bench is the repository's benchmark: four open-loop workloads
// against a live five-member group of KV replicas, end-to-end metrics
// from an untraced run and a per-layer budget from a traced one, with
// the correctness checkers part of the same command. See README.md.
//
//	bash bench/run.sh -seed 1                       every workload, untraced then traced
//	bash bench/run.sh --workload kv_put_wan --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh -layers                       the single-layer micro-drives alone
//	bash bench/run.sh -compare a.json b.json        two result files against the bounds
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload once and print its result line; empty = run them all")
		seed    = flag.Int64("seed", 1, "seed for key order, read phase, value filler and the injected-delay wrappers")
		seconds = flag.Int("seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = untraced run reporting end-to-end metrics")
		layers  = flag.Bool("layers", false, "run only the single-layer micro-drives")
		compare = flag.Bool("compare", false, "compare two result files (args: a.json b.json) against the bounds")
	)
	flag.Parse()
	specAt := filepath.Join(benchDir(), "..", "BENCHMARK.json")

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal("usage: -compare a.json b.json")
		}
		ok, err := compareFiles(os.Stdout, specAt, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal("%v", err)
		}
		if !ok {
			os.Exit(1)
		}
	case *layers:
		printMetrics(os.Stdout, microDrives(*seed), perLayer)
	case *name != "":
		w, ok := workloadByName(*name)
		if !ok {
			fatal("unknown workload %q", *name)
		}
		if *seconds <= 0 {
			*seconds = specSeconds(specAt)
		}
		if !runOne(w, *seed, *seconds, *trace != 0) {
			os.Exit(1)
		}
	default:
		if *seconds <= 0 {
			*seconds = specSeconds(specAt)
		}
		if !runAll(*seed, *seconds) {
			os.Exit(1)
		}
	}
}

// benchDir is this package's directory: where results/ goes and beside
// whose parent BENCHMARK.json lives. run.sh names it; under `go run -C
// bench .` it is the working directory.
func benchDir() string {
	if dir := os.Getenv("BENCH_DIR"); dir != "" {
		return dir
	}
	return "."
}

// resultsDir creates and returns bench/results.
func resultsDir() (string, error) {
	dir := filepath.Join(benchDir(), "results")
	return dir, os.MkdirAll(dir, 0o755)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// benchmarkSpec is BENCHMARK.json.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readSpec(path string) (benchmarkSpec, error) {
	var spec benchmarkSpec
	blob, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return spec, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

func specSeconds(path string) int {
	spec, err := readSpec(path)
	if err != nil || spec.RunSeconds <= 0 {
		fatal("-seconds not given and no run_seconds to default to: %v", err)
	}
	return spec.RunSeconds
}

// runOne executes one workload in this process: every metric by name
// with unit and sample count, violations on stderr, the result object as
// the last line of stdout.
func runOne(w workload, seed int64, seconds int, traced bool) bool {
	r := execute(w, seed, time.Duration(seconds)*time.Second, traced)
	res := r.result()
	specs := endToEnd
	if traced {
		specs = perLayer
		if path, err := r.t.writeFile(w.Name, seed); err != nil {
			fmt.Fprintln(os.Stderr, "bench: trace file:", err)
		} else {
			fmt.Printf("trace: %s (%d spans kept, %d beyond the cap)\n", path, len(r.t.spans), r.t.dropped.Load())
		}
	}
	fmt.Printf("workload %s seed %d: %ds measured, traced=%v, %d ops attempted, %d failed\n",
		w.Name, seed, seconds, traced, res.Attempted, res.Failed)
	if w.WAN {
		fmt.Printf("injected delay: %v one-way on every directed link of both planes\n", wanOneWay)
	}
	printMetrics(os.Stdout, res.Metrics, specs)
	if !traced {
		fmt.Printf("  not gated: cpu_us_per_op %.4f us over n=%d acked ops\n", r.cpuPerOp(), r.acc.acked())
	}
	for i, ws := range r.acc.wins {
		fmt.Printf("  window %d: put p50 %.3f p95 %.3f  read p50 %.3f p95 %.3f  generator lateness p99 %.3f ms\n",
			i, ws.putP50, ws.putP95, ws.readP50, ws.readP95, ws.lateP99)
	}
	for _, err := range r.errs {
		fmt.Fprintln(os.Stderr, "bench: VIOLATION:", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println(string(line))
	return res.Correct
}

func printMetrics(out io.Writer, vals map[string]metricValue, specs []metricSpec) {
	tw := tabwriter.NewWriter(out, 0, 4, 2, ' ', 0)
	for _, sp := range specs {
		if v, ok := vals[sp.Name]; ok {
			fmt.Fprintf(tw, "  %s\t%.4f\t%s\tn=%d\n", sp.Name, v.Value, sp.Unit, v.n)
		}
	}
	tw.Flush()
}

// --- the full run --------------------------------------------------------------

// envStamp says where a result file's numbers came from.
type envStamp struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	GitSHA     string `json:"git_sha"`
}

func captureEnv() envStamp {
	env := envStamp{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPUModel: "unknown", GitSHA: "unknown"}
	if blob, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(blob), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.GitSHA = s.Value
			}
		}
	}
	return env
}

// workloadResult is one workload's two runs.
type workloadResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"ops_attempted"`
	Failed    int                    `json:"ops_failed"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer"`
	// TraceOverheadRatio is the traced run's put_p50_ms over the untraced
	// run's: what the wrappers cost.
	TraceOverheadRatio float64 `json:"bench.trace_overhead_ratio"`
}

// resultFile is what a full run writes and -compare reads.
type resultFile struct {
	Env       envStamp                  `json:"env"`
	Seed      int64                     `json:"seed"`
	Seconds   int                       `json:"seconds"`
	Workloads map[string]workloadResult `json:"workloads"`
}

// runAll runs every workload untraced and then traced, each in a process
// of its own so heap, GC state and peak RSS never leak from one into the
// next, and writes results/run-seed<seed>.json.
func runAll(seed int64, seconds int) bool {
	out := resultFile{Env: captureEnv(), Seed: seed, Seconds: seconds, Workloads: make(map[string]workloadResult)}
	ok := true
	for _, w := range workloads {
		plain, err := runChild(w.Name, seed, seconds, 0)
		if err != nil {
			fatal("%s untraced: %v", w.Name, err)
		}
		traced, err := runChild(w.Name, seed, seconds, 1)
		if err != nil {
			fatal("%s traced: %v", w.Name, err)
		}
		wr := workloadResult{
			Correct:   plain.Correct && traced.Correct,
			Attempted: plain.Attempted, Failed: plain.Failed + traced.Failed,
			EndToEnd: plain.Metrics, PerLayer: traced.Metrics,
			TraceOverheadRatio: ratio(traced.Metrics["bench.traced_put_p50_ms"].Value, plain.Metrics["put_p50_ms"].Value),
		}
		fmt.Printf("  bench.trace_overhead_ratio  %.4f  (traced / untraced put_p50_ms)\n\n", wr.TraceOverheadRatio)
		out.Workloads[w.Name] = wr
		ok = ok && wr.Correct && wr.Failed == 0
	}
	dir, err := resultsDir()
	if err != nil {
		fatal("%v", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("run-seed%d.json", seed))
	blob, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		fatal("%v", err)
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		fatal("%v", err)
	}
	fmt.Printf("wrote %s\n", path)
	if !ok {
		fmt.Println("FAILED: a run was incorrect, invalid, or had failed ops (see VIOLATION lines above)")
	}
	return ok
}

// runChild re-executes this binary for one run, passes its output
// through, and parses the result line.
func runChild(name string, seed int64, seconds, trace int) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(self, "--workload", name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = io.MultiWriter(os.Stdout, &stdout), os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("no result line (%v): %w", runErr, err)
	}
	return res, nil // a non-zero exit with a result line is an incorrect run, reported through res.Correct
}

// --- compare ---------------------------------------------------------------------

// compareFiles prints, per workload and end-to-end metric, how b differs
// from a and whether that is past the metric's bound; it reports false if
// any is, or if b's share of failed ops is higher than a's.
func compareFiles(out io.Writer, specPath, pathA, pathB string) (bool, error) {
	spec, err := readSpec(specPath)
	if err != nil {
		return false, err
	}
	var a, b resultFile
	for path, dst := range map[string]*resultFile{pathA: &a, pathB: &b} {
		blob, err := os.ReadFile(path)
		if err != nil {
			return false, err
		}
		if err := json.Unmarshal(blob, dst); err != nil {
			return false, fmt.Errorf("%s: %w", path, err)
		}
	}
	names := make([]string, 0, len(a.Workloads))
	for name := range a.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)

	ok := true
	tw := tabwriter.NewWriter(out, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\tworse by\tbound\t")
	for _, name := range names {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if _, both := b.Workloads[name]; !both {
			fmt.Fprintf(tw, "%s\t(missing in b)\t\t\t\t\tFAIL\n", name)
			ok = false
			continue
		}
		for _, m := range spec.EndToEnd {
			va, vb := wa.EndToEnd[m.Name].Value, wb.EndToEnd[m.Name].Value
			worse := ratio(vb-va, va)
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > m.Bound || va == 0 || vb == 0 {
				verdict, ok = "FAIL", false
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4f\t%.4f\t%+.1f%%\t%.0f%%\t%s\n", name, m.Name, va, vb, 100*worse, 100*m.Bound, verdict)
		}
		sa, sb := ratio(float64(wa.Failed), float64(wa.Attempted)), ratio(float64(wb.Failed), float64(wb.Attempted))
		verdict := "ok"
		if sb > sa || !wb.Correct {
			verdict, ok = "FAIL", false
		}
		fmt.Fprintf(tw, "%s\tops_failed share\t%.6f\t%.6f\t\t\t%s\n", name, sa, sb, verdict)
	}
	tw.Flush()
	return ok, nil
}
