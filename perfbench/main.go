// Command perfbench is the repository's host-time benchmark. It runs one
// named workload through the public entry points of the simulator's
// applications and experiment harness, always on the sequential kernel,
// checks every cell's virtual-time outputs, and prints the end-to-end
// metrics (or, with -trace 1, the per-layer metrics) as the last line of
// standard output:
//
//	perfbench -workload tsp-switch -seed 0 -seconds 20 -trace 0
//
// run.sh builds and runs it from the repository root. README.md explains
// the workloads, the metrics and which layer metric should move which
// end-to-end metric on which workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/exp"
)

// setupReps is how many times each run repeats its set-up phase;
// setup_s is the median.
const setupReps = 3

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 0, "workload seed (0 = each workload's paper seed, whose outputs are pinned)")
	seconds := fs.Float64("seconds", 10, "host seconds to spend in the measured phase")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	outDir := fs.String("out", ".bench_out", "directory for the run report, spans and CPU profile")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl := findWorkload(*name)
	if wl == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1\n")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: -seconds must be positive\n")
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	base := filepath.Join(*outDir, fmt.Sprintf("%s-seed%d-trace%d", wl.name, *seed, *trace))

	// Every cell runs on the sequential kernel (exp's default Shards 1,
	// and the apps' default); the quick suite's harness runs one cell per
	// CPU.
	exp.Workers = runtime.NumCPU()

	rec := &spanRecorder{origin: time.Now()}
	facts := runFacts()
	fmt.Fprintf(stdout, "perfbench %s seed=%d trace=%d | %s\n", wl.name, *seed, *trace, facts)

	// Set-up: input generation, the reference solves the checks need,
	// and one warm-up cell, repeated; the last plan is the one measured.
	var (
		p      *plan
		setups []float64
	)
	for i := 0; i < setupReps; i++ {
		sp := rec.begin(fmt.Sprintf("setup#%d", i), -1)
		t0 := time.Now()
		var err error
		p, err = wl.prepare(wl.instanceSeed(*seed), rec, sp)
		setups = append(setups, time.Since(t0).Seconds())
		rec.end(sp)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s set-up: %v\n", wl.name, err)
			return 1
		}
	}

	var (
		res    result
		report = runReport{Workload: wl.name, Seed: *seed, Trace: *trace, Facts: facts, SetupS: setups}
	)
	if *trace == 0 {
		m := measure(p, *seconds, false, rec)
		res = m.result()
		res.Metrics = map[string]metric{
			"wall_s":       {m.wallS(), "s"},
			"setup_s":      {median(setups), "s"},
			"cpu_s":        {m.cpuS(), "s"},
			"events_per_s": {m.eventsPerS(), "1/s"},
			"peak_rss_mib": {peakRSSMiB(), "MiB"},
		}
		report.Passes = []passSummary{m.summary("plain")}
	} else {
		// The traced run: half the budget untraced, half with an obs
		// collector on every cell and the CPU profile on, then the layer
		// drivers. Counters come from the untraced half.
		plain := measure(p, *seconds/2, false, rec)
		profPath := base + ".cpu.pprof"
		prof, err := os.Create(profPath)
		if err == nil {
			err = pprof.StartCPUProfile(prof)
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: cpu profile: %v\n", err)
			return 1
		}
		traced := measure(p, *seconds/2, true, rec)
		pprof.StopCPUProfile()
		if err := prof.Close(); err != nil {
			fmt.Fprintf(stderr, "perfbench: cpu profile: %v\n", err)
			return 1
		}
		shares, err := hostShares(profPath)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		drv := runDrivers(rec)
		res = plain.result()
		tres := traced.result()
		res.Attempted += tres.Attempted
		res.Failed += tres.Failed
		res.Correct = res.Correct && tres.Correct
		res.Metrics = layerMetrics(p, plain, traced, shares, drv)
		report.Passes = []passSummary{plain.summary("plain"), traced.summary("traced")}
		report.Profile = profPath
	}
	report.Metrics = res.Metrics
	report.Spans = rec.spans
	report.Failures = p.failures
	if err := writeJSON(base+".report.json", report); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	printHuman(stdout, report, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		for _, f := range p.failures {
			fmt.Fprintf(stderr, "perfbench: FAIL %s\n", f)
		}
		return 1
	}
	return 0
}

// runReport is what a run leaves in the output directory.
type runReport struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Trace    int               `json:"trace"`
	Facts    facts             `json:"facts"`
	SetupS   []float64         `json:"setup_s"`
	Passes   []passSummary     `json:"passes"`
	Metrics  map[string]metric `json:"metrics"`
	Failures []string          `json:"failures,omitempty"`
	Profile  string            `json:"cpu_profile,omitempty"`
	Spans    []span            `json:"spans"`
}

// facts are the host and runtime settings a host-time number depends on.
type facts struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GOGC       string `json:"gogc"`
	GOMEMLIMIT string `json:"gomemlimit"`
	Workers    int    `json:"exp_workers"`
}

func runFacts() facts {
	env := func(k string) string {
		if v := os.Getenv(k); v != "" {
			return v
		}
		return "default"
	}
	return facts{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GOGC:       env("GOGC"),
		GOMEMLIMIT: env("GOMEMLIMIT"),
		Workers:    exp.Workers,
	}
}

func (f facts) String() string {
	return fmt.Sprintf("%s GOMAXPROCS=%d NumCPU=%d GOGC=%s GOMEMLIMIT=%s exp.Workers=%d",
		f.GoVersion, f.GOMAXPROCS, f.NumCPU, f.GOGC, f.GOMEMLIMIT, f.Workers)
}

func printHuman(w io.Writer, r runReport, res result) {
	fmt.Fprintf(w, "setup_s per rep: %s\n", fmtFloats(r.SetupS))
	for _, ps := range r.Passes {
		fmt.Fprintf(w, "%s passes: %d, pass wall s: %s\n", ps.Phase, len(ps.WallS), fmtFloats(ps.WallS))
		for _, c := range ps.Cells {
			fmt.Fprintf(w, "  cell %-28s median wall %.4f s  cpu %.4f s  events %d\n", c.Name, c.WallS, c.CPUS, c.Events)
		}
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	frac := float64(res.Failed) / float64(max(res.Attempted, 1))
	fmt.Fprintf(w, "cells attempted %d, failed %d, fail_frac %.4f\n", res.Attempted, res.Failed, frac)
}

func fmtFloats(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(parts, " ")
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("encode %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write report: %w", err)
	}
	return nil
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
