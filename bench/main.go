// Command bench is the repository's performance ledger: four named workloads,
// sixteen end-to-end metrics measured with tracing off (timings in seconds of
// a reference machine, see machine.go), and a traced run that attributes each
// workload's time to the layers under it. BENCHMARK.json at
// the repository root names the command, the workloads and the metrics every
// run reports; README.md in this directory has the tables and the reasoning.
//
//	go run ./bench -workload all -seed 42     the ledger: every workload, -repeat runs each
//	go run ./bench -trace                     the traced run of every workload
//	go run ./bench -selfcheck                 two ledgers back to back, held against the bounds
//	go run ./bench -workload round-walk       one run in this process; its last line is the driver's
//
// A single workload without -repeat runs in this process and ends its output
// with the one-line JSON result BENCHMARK.json's driver reads. Everything
// else runs each workload in a fresh child process of this binary, so that
// peak_rss_mb is the workload's own.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/specdag/specdag/internal/core"
	"github.com/specdag/specdag/internal/par"
	"github.com/specdag/specdag/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// boolArgs rewrites "-name 0" and "-name 1" (the driver's spelling) into the
// "-name=0" form the flag package needs for a boolean.
func boolArgs(args []string, name string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		arg := args[i]
		if (arg == "-"+name || arg == "--"+name) && i+1 < len(args) {
			switch args[i+1] {
			case "0", "1", "true", "false":
				arg += "=" + args[i+1]
				i++
			}
		}
		out = append(out, arg)
	}
	return out
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames, " | ")+" | all")
	seed := fs.Int64("seed", 42, "seed every input is generated from")
	secs := fs.Float64("seconds", 0, "how long one run keeps adding replicates of its scenario (default: run_seconds of BENCHMARK.json)")
	trace := fs.Bool("trace", false, "traced run: per-layer metrics, spans in bench/out/trace-<workload>.jsonl")
	repeat := fs.Int("repeat", 0, "runs per workload, each in a child process; the median is reported (default 3 for -workload all)")
	selfcheck := fs.Bool("selfcheck", false, "run the ledger twice and hold the difference of medians against each metric's bound")
	scale := fs.String("scale", "default", "scenario sizes: default | full (the sizing pass's) | smoke (tests)")
	if err := fs.Parse(boolArgs(args, "trace")); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}

	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	bf, err := loadBenchmarkFile(root)
	if err == nil {
		err = checkBenchmarkFile(bf)
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if *secs <= 0 {
		*secs = float64(bf.RunSeconds)
	}
	if *workload != "all" && !isWorkload(*workload) {
		fmt.Fprintf(stderr, "bench: unknown workload %q (%s | all)\n", *workload, strings.Join(workloadNames, " | "))
		return 2
	}
	if _, err := sizesFor(*scale); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	if *workload != "all" && *repeat == 0 && !*selfcheck {
		p := params{workload: *workload, seed: *seed, seconds: *secs, scale: *scale, trace: *trace, root: root}
		return runOne(p, bf, stdout, stderr)
	}

	l := ledger{
		root: root, stdout: stdout, stderr: stderr,
		seed: *seed, seconds: *secs, scale: *scale, trace: *trace, repeat: *repeat,
		workloads: workloadNames,
	}
	if *workload != "all" {
		l.workloads = []string{*workload}
	}
	if l.repeat <= 0 {
		l.repeat = 3
	}
	if l.trace {
		l.repeat = 1
	}
	if *selfcheck {
		return l.selfcheck()
	}
	doc, err := l.run()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	l.print(doc)
	if doc.failed() {
		return 1
	}
	return 0
}

// measure is one metric value as the driver reads it.
type measure struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverLine is the last line of a run: exactly what BENCHMARK.json's driver
// wants, with exactly the metrics BENCHMARK.json lists.
type driverLine struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]measure `json:"metrics"`
}

// runResult is everything one run measured; the ledger reads it from the
// line before the driver's.
type runResult struct {
	Workload       string             `json:"workload"`
	Seed           int64              `json:"seed"`
	Seconds        float64            `json:"seconds"`
	Scale          string             `json:"scale"`
	Trace          bool               `json:"trace"`
	Correct        bool               `json:"correct"`
	Attempted      int                `json:"attempted"`
	Failed         int                `json:"failed"`
	Failures       []string           `json:"failures,omitempty"`
	TailPercentile int                `json:"tail_percentile,omitempty"`
	Metrics        map[string]measure `json:"metrics"`
	// Replicates holds, per metric, the values the run's replicates gave —
	// what Metrics holds the medians of.
	Replicates map[string][]float64 `json:"replicates,omitempty"`
	Digests    map[string]string    `json:"digests"`
}

const resultPrefix = "result: "

// warmUp runs miniatures of round-train, untimed, for a second (less when the
// run itself is shorter), so that lazy set-up of the runtime and the machine
// (heap growth, the worker pool's first goroutines, a virtual CPU that idled)
// is not billed to whatever is measured first.
func warmUp(nproc int, seconds float64) error {
	spec := sim.CIFARSpec(sim.Quick, 1)
	limit := time.Duration(math.Min(1, seconds) * float64(time.Second))
	for start := time.Now(); ; {
		cfg := roundConfig(spec, 3, 4, nproc, par.NewBudget(nproc), 1)
		s, err := core.NewSimulation(spec.Fed, cfg)
		if err != nil {
			return err
		}
		if _, _, _, err = drive(s, 0, nil, nil); err != nil {
			return err
		}
		if time.Since(start) >= limit {
			return nil
		}
	}
}

// runOne runs one workload once in this process and prints its result.
func runOne(p params, bf *benchmarkFile, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintf(stderr, "bench: %s: %v\n", p.workload, err)
		return 1
	}
	p.nproc = runtime.NumCPU()
	runtime.GOMAXPROCS(p.nproc)
	sz, err := sizesFor(p.scale)
	if err != nil {
		return fail(err)
	}
	if err := os.MkdirAll(p.outDir(), 0o755); err != nil {
		return fail(err)
	}
	if p.tmp, err = os.MkdirTemp(p.outDir(), "tmp-"); err != nil {
		return fail(err)
	}
	defer os.RemoveAll(p.tmp)
	if err := warmUp(p.nproc, p.seconds); err != nil {
		return fail(err)
	}

	o := newOutcome()
	switch p.workload {
	case wRoundWalk, wRoundTrain:
		err = runRound(p, sz, o)
	case wAsync:
		err = runAsync(p, sz, o)
	case wServe:
		err = runServe(p, sz, o)
	}
	if err != nil {
		return fail(err)
	}
	o.reduce()

	// What must be there: with tracing off, the end-to-end metrics listed for
	// this workload and no other; traced, every per-layer metric.
	units := map[string]string{}
	if p.trace {
		for _, m := range perLayer {
			units[m.Name] = m.Unit
		}
	} else {
		for _, m := range endToEnd {
			if carries(m, p.workload) {
				units[m.Name] = m.Unit
			}
		}
	}
	for name := range units {
		if _, ok := o.metrics[name]; !ok && name != "failed_share" {
			o.ops.check(false, "metric %s was not measured", name)
		}
	}
	for name := range o.metrics {
		if _, ok := units[name]; !ok {
			o.ops.check(false, "metric %s is not listed for %s", name, p.workload)
			delete(o.metrics, name)
		}
	}
	if !p.trace {
		o.set("failed_share", o.ops.share())
	}

	res := runResult{
		Workload: p.workload, Seed: p.seed, Seconds: p.seconds, Scale: p.scale, Trace: p.trace,
		Correct: o.ops.failed == 0, Attempted: o.ops.attempted, Failed: o.ops.failed, Failures: o.ops.failures,
		TailPercentile: o.tailPct,
		Metrics:        map[string]measure{},
		Replicates:     o.samples,
		Digests:        o.digests,
	}
	for name, v := range o.metrics {
		res.Metrics[name] = measure{Value: v, Unit: units[name]}
	}
	for _, f := range o.ops.failures {
		fmt.Fprintf(stderr, "bench: %s: FAILED: %s\n", p.workload, f)
	}
	printRun(stdout, &res, p.trace)
	line := driverLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]measure{}}
	for _, name := range contractMetrics(bf, p.trace) {
		if m, ok := res.Metrics[name]; ok {
			line.Metrics[name] = m
		}
	}
	full, err := json.Marshal(&res)
	if err != nil {
		return fail(err)
	}
	last, err := json.Marshal(&line)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "%s%s\n%s\n", resultPrefix, full, last)
	if !res.Correct {
		return 1
	}
	return 0
}

// printRun lists one run's metrics by name, with units, in table order.
func printRun(w io.Writer, res *runResult, trace bool) {
	for _, name := range metricOrder(trace) {
		if m, ok := res.Metrics[name]; ok {
			fmt.Fprintf(w, "%-16s %-40s %-9s %.6g\n", res.Workload, name, m.Unit, m.Value)
		}
	}
	if res.TailPercentile > 0 {
		fmt.Fprintf(w, "%-16s step_tail_ms is p%d\n", res.Workload, res.TailPercentile)
	}
}

// commit names the source the binary was built from, for the ledger document.
func commit(root string) string {
	if blob, err := os.ReadFile(filepath.Join(root, ".git", "HEAD")); err == nil {
		head := strings.TrimSpace(string(blob))
		if ref, ok := strings.CutPrefix(head, "ref: "); ok {
			if blob, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
				return strings.TrimSpace(string(blob))
			}
			return ref
		}
		return head
	}
	return "unknown"
}
