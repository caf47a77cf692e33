package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// childEnv marks a process as a child of the ledger. The test binary looks
// for it to run the benchmark's main instead of the tests, which is how the
// smoke test covers the child-process plumbing.
const childEnv = "SPECDAG_BENCH_CHILD"

// ledger runs workloads in child processes and aggregates their results.
type ledger struct {
	root      string
	stdout    io.Writer
	stderr    io.Writer
	seed      int64
	seconds   float64
	scale     string
	trace     bool
	repeat    int
	workloads []string
}

// summary is one metric of one workload over the repeats.
type summary struct {
	Unit   string    `json:"unit"`
	N      int       `json:"n"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

// workloadDoc is one workload's part of the ledger document.
type workloadDoc struct {
	TailPercentile int                `json:"tail_percentile,omitempty"`
	Attempted      int                `json:"attempted"`
	Failed         int                `json:"failed"`
	Failures       []string           `json:"failures,omitempty"`
	Metrics        map[string]summary `json:"metrics"`
	Digests        map[string]string  `json:"digests"`
}

// document is the machine-readable ledger: the numbers and what they were
// measured on.
type document struct {
	Commit     string                 `json:"commit"`
	Go         string                 `json:"go"`
	NumCPU     int                    `json:"nproc"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	Seed       int64                  `json:"seed"`
	Seconds    float64                `json:"seconds"`
	Scale      string                 `json:"scale"`
	Repeat     int                    `json:"repeat"`
	Trace      bool                   `json:"trace"`
	Workloads  map[string]workloadDoc `json:"workloads"`
}

func (d *document) failed() bool {
	for _, w := range d.Workloads {
		if w.Failed > 0 {
			return true
		}
	}
	return false
}

// child runs one workload once in a fresh process of this binary.
func (l *ledger) child(workload string) (*runResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self,
		"-workload", workload,
		"-seed", strconv.FormatInt(l.seed, 10),
		"-seconds", strconv.FormatFloat(l.seconds, 'g', -1, 64),
		"-scale", l.scale,
		"-trace="+strconv.FormatBool(l.trace))
	cmd.Dir = l.root
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = l.stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	runErr := cmd.Run()
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		if line, ok := strings.CutPrefix(sc.Text(), resultPrefix); ok {
			var res runResult
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				return nil, fmt.Errorf("bench: decoding the result of %s: %w", workload, err)
			}
			return &res, nil
		}
	}
	if runErr != nil {
		return nil, fmt.Errorf("bench: running %s in a child process: %w", workload, runErr)
	}
	return nil, fmt.Errorf("bench: the child process for %s printed no result", workload)
}

// run runs every workload repeat times and summarizes each metric.
func (l *ledger) run() (*document, error) {
	doc := &document{
		Commit: commit(l.root), Go: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.NumCPU(),
		Seed: l.seed, Seconds: l.seconds, Scale: l.scale, Repeat: l.repeat, Trace: l.trace,
		Workloads: map[string]workloadDoc{},
	}
	for _, w := range l.workloads {
		wd := workloadDoc{Metrics: map[string]summary{}}
		values := map[string][]float64{}
		units := map[string]string{}
		for r := 0; r < l.repeat; r++ {
			fmt.Fprintf(l.stderr, "bench: %s run %d of %d\n", w, r+1, l.repeat)
			res, err := l.child(w)
			if err != nil {
				return nil, err
			}
			wd.TailPercentile = res.TailPercentile
			wd.Attempted += res.Attempted
			wd.Failed += res.Failed
			wd.Failures = append(wd.Failures, res.Failures...)
			wd.Digests = res.Digests
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
				units[name] = m.Unit
			}
		}
		for name, vs := range values {
			q1, med, q3 := quartiles(vs)
			wd.Metrics[name] = summary{Unit: units[name], N: len(vs), Median: med, Q1: q1, Q3: q3, Values: vs}
		}
		doc.Workloads[w] = wd
	}
	return doc, nil
}

// metricOrder lists the metric names of a document's kind in table order.
func metricOrder(trace bool) []string {
	var names []string
	if trace {
		for _, m := range perLayer {
			names = append(names, m.Name)
		}
		return names
	}
	for _, m := range endToEnd {
		names = append(names, m.Name)
	}
	return names
}

// print writes one line per metric — workload, metric, unit, n, median, q1,
// q3 — then the document as JSON, which is also stored under bench/out.
func (l *ledger) print(doc *document) {
	fmt.Fprintf(l.stdout, "%-16s %-40s %-9s %3s %14s %14s %14s\n", "workload", "metric", "unit", "n", "median", "q1", "q3")
	for _, w := range l.workloads {
		wd := doc.Workloads[w]
		for _, name := range metricOrder(doc.Trace) {
			if s, ok := wd.Metrics[name]; ok {
				fmt.Fprintf(l.stdout, "%-16s %-40s %-9s %3d %14.6g %14.6g %14.6g\n", w, name, s.Unit, s.N, s.Median, s.Q1, s.Q3)
			}
		}
		if wd.TailPercentile > 0 {
			fmt.Fprintf(l.stdout, "%-16s step_tail_ms is p%d\n", w, wd.TailPercentile)
		}
		for _, f := range wd.Failures {
			fmt.Fprintf(l.stdout, "%-16s FAILED: %s\n", w, f)
		}
	}
	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(l.stderr, "bench:", err)
		return
	}
	fmt.Fprintf(l.stdout, "%s\n", blob)
	name := "ledger.json"
	if doc.Trace {
		name = "ledger-trace.json"
	}
	out := filepath.Join(l.root, "bench", "out")
	if err := os.MkdirAll(out, 0o755); err == nil {
		err = os.WriteFile(filepath.Join(out, name), append(blob, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(l.stderr, "bench:", err)
	}
}

// worsening is how much worse b is than a, as a share of a, in the metric's
// own direction; negative when b is better.
func worsening(better string, a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		a = b
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// selfcheck runs the ledger twice on this binary and compares, per metric
// and workload, the medians of the two sets against the metric's bound: the
// evidence that the bounds are wider than the benchmark's own noise. A
// metric with bound 0 must repeat exactly.
func (l *ledger) selfcheck() int {
	l.trace = false
	first, err := l.run()
	if err == nil {
		var second *document
		if second, err = l.run(); err == nil {
			return l.compare(first, second)
		}
	}
	fmt.Fprintln(l.stderr, err)
	return 1
}

func (l *ledger) compare(first, second *document) int {
	status := 0
	fmt.Fprintf(l.stdout, "%-16s %-24s %14s %14s %9s %7s %9s\n", "workload", "metric", "median 1", "median 2", "worse by", "bound", "spread 1")
	for _, w := range l.workloads {
		a, b := first.Workloads[w], second.Workloads[w]
		for _, m := range endToEnd {
			sa, ok := a.Metrics[m.Name]
			if !ok {
				continue
			}
			sb := b.Metrics[m.Name]
			worse := worsening(m.Better, sa.Median, sb.Median)
			verdict := ""
			if worse > m.Bound {
				verdict = "  EXCEEDS ITS BOUND"
				status = 1
			}
			fmt.Fprintf(l.stdout, "%-16s %-24s %14.6g %14.6g %+8.2f%% %6.0f%% %8.2f%%%s\n",
				w, m.Name, sa.Median, sb.Median, 100*worse, 100*m.Bound, 100*spread(sa.Values), verdict)
		}
		if a.Failed+b.Failed > 0 {
			fmt.Fprintf(l.stdout, "%-16s %d operations failed\n", w, a.Failed+b.Failed)
			status = 1
		}
	}
	return status
}
