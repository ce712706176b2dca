// Command perfbench is the repository's benchmark. Each run brings up a
// live cluster in-process over loopback TCP, drives one workload for a
// fixed window, checks every output, and prints the workload's metrics.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run is split into an untraced and a traced half and the metrics are the
// per-layer ones read from the traced half. README.md describes the
// workloads and what each metric should move.
//
// Run it through run.sh, which builds it from the checkout:
//
//	bash perfbench/run.sh --workload calls-flat --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// workload is one traffic mix the benchmark can drive. README.md says
// why each exists; BENCHMARK.json lists the ones the benchmark runs.
type workload struct {
	name string
	run  func(e *env) (*outcome, error)
}

var workloads = []workload{
	{"calls-flat", runCallsFlat},
	{"dv3-flat", runDV3Flat},
	{"dv3-foremen", runDV3Foremen},
	{"gate-sessions", runGateSessions},
}

// env is what a workload run receives: its seed, its window, and where it
// may write.
type env struct {
	seed    uint64
	window  time.Duration
	traced  bool
	scratch string // per-run scratch directory, removed when the run ends
	dataDir string // seed-keyed dataset cache, kept across runs
	tr      *tracer
	log     io.Writer
}

// outcome is a workload's result: operation counts, the output check,
// and its metrics by name.
type outcome struct {
	attempted, failed int64
	checkErr          error
	metrics           map[string]float64
	samples           map[string]int // sample count behind each percentile
}

func newOutcome() *outcome {
	return &outcome{metrics: make(map[string]float64), samples: make(map[string]int)}
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"tasks_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"cpu_ms_per_task", "ms"},
}

// perLayer are the metrics of single layers, reported by every traced
// run. A layer a workload does not exercise reads 0.
var perLayer = []metricDef{
	{"latency_p99_ms", "ms"},
	{"makespan_s", "s"},
	{"events_per_s", "1/s"},
	{"failed_frac", "ratio"},
	{"peak_rss_mb", "MB"},
	{"vine.submit_p50_us", "us"},
	{"vine.queue_wait_p50_ms", "ms"},
	{"vine.queue_wait_p99_ms", "ms"},
	{"vine.exec_p50_ms", "ms"},
	{"vine.complete_p50_ms", "ms"},
	{"vine.complete_p99_ms", "ms"},
	{"vine.library_setup_ms", "ms"},
	{"vine.peer_bytes", "bytes"},
	{"vine.manager_bytes", "bytes"},
	{"vine.transfers", "count"},
	{"vine.retries", "count"},
	{"sched.assign_ns", "ns"},
	{"sched.assign_allocs", "count"},
	{"journal.appends_per_task", "count"},
	{"journal.bytes_per_task", "bytes"},
	{"journal.appends_per_sync", "count"},
	{"journal.append_p50_us", "us"},
	{"gate.submit_p50_ms", "ms"},
	{"gate.submit_p99_ms", "ms"},
	{"gate.wait_p50_ms", "ms"},
	{"gate.wait_p99_ms", "ms"},
	{"gate.polls_per_dag", "count"},
	{"gate.warm_hit_ratio", "ratio"},
	{"gate.rejections", "count"},
	{"foreman.lease_batches", "count"},
	{"foreman.tasks_per_lease", "count"},
	{"foreman.reports", "count"},
	{"foreman.cross_shard_transfers", "count"},
	{"foreman.cross_shard_bytes", "bytes"},
	{"foreman.shard_skew", "ratio"},
	{"daskvine.run_s", "s"},
	{"dag.tasks", "count"},
	{"dag.critical_path", "count"},
	{"coffea.serial_s", "s"},
	{"coffea.parallel_eff", "ratio"},
	{"go.gc_cpu_frac", "ratio"},
	{"go.heap_peak_mb", "MB"},
	{"fs.publish_us", "us"},
	{"trace.overhead_frac", "ratio"},
}

// metricJSON is one metric in the result line.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultJSON is the result line.
type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "length of the timed window")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	work := fs.String("work", ".bench_build", "directory for scratch state, dataset cache and trace output")
	synth := fs.String("synthesize", "", "internal: write the seed's DV3 dataset to this directory and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *synth != "" {
		if err := synthesize(*synth, *seed); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -seconds >= 1 and -trace 0|1\n", workloadNames())
		return 2
	}
	res, err := runWorkload(wl, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *work, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// runWorkload prepares the run's directories and machine record, runs the
// workload, and assembles the result line. A failed output check yields
// correct=false; an error setting up or driving the cluster is returned.
func runWorkload(wl *workload, seed uint64, window time.Duration, traced bool, work string, log io.Writer) (*resultJSON, error) {
	scratch := filepath.Join(work, "scratch", fmt.Sprintf("%s-%d", wl.name, os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	e := &env{
		seed:    seed,
		window:  window,
		traced:  traced,
		scratch: scratch,
		dataDir: filepath.Join(work, "data"),
		log:     log,
	}
	mach := probeMachine(scratch)
	fmt.Fprintf(log, "perfbench: %s seed=%d window=%v traced=%v %s\n", wl.name, seed, window, traced, mach)
	if traced {
		e.tr = newTracer()
	}
	out, err := wl.run(e)
	if err != nil {
		return nil, err
	}
	if traced {
		out.metrics["fs.publish_us"] = mach.publishMicros
		dir := filepath.Join(work, "trace", fmt.Sprintf("%s-seed%d", wl.name, seed))
		if err := e.tr.write(dir, mach); err != nil {
			return nil, err
		}
		fmt.Fprintf(log, "perfbench: %d spans written to %s\n", e.tr.len(), dir)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	if out.failed > 0 && out.checkErr == nil {
		// A failed, refused or timed-out operation produced no output to
		// check, so the run cannot be correct.
		out.checkErr = fmt.Errorf("%d of %d operations failed", out.failed, out.attempted)
	}
	res := &resultJSON{
		Correct:   out.checkErr == nil,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricJSON, len(defs)),
	}
	if out.checkErr != nil {
		fmt.Fprintf(log, "perfbench: %s: output check FAILED: %v\n", wl.name, out.checkErr)
	}
	if res.Attempted < 1 {
		return nil, errors.New("no operation attempted")
	}
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok && !traced {
			return nil, fmt.Errorf("end-to-end metric %s not measured", d.name)
		}
		res.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	printTable(log, defs, out)
	return res, nil
}

// printTable writes every metric by name with its unit, and the sample
// count behind each percentile, for a human reader.
func printTable(w io.Writer, defs []metricDef, out *outcome) {
	names := make([]string, 0, len(defs))
	for _, d := range defs {
		names = append(names, d.name)
	}
	units := make(map[string]string, len(defs))
	for _, d := range defs {
		units[d.name] = d.unit
	}
	sort.Strings(names)
	fmt.Fprintf(w, "  attempted=%d failed=%d\n", out.attempted, out.failed)
	for _, n := range names {
		extra := ""
		if k, ok := out.samples[n]; ok {
			extra = fmt.Sprintf("  (n=%d)", k)
		}
		fmt.Fprintf(w, "  %-30s %14.6g %s%s\n", n, out.metrics[n], units[n], extra)
	}
}
