package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// ledger starts its children with childEnv set, and such a child runs the
// benchmark's main instead of the tests. TestSmoke relies on it.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values are statistics.quantiles(xs, n=4) of Python 3.
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{7}, [3]float64{7, 7, 7}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 4, 8, 16, 32, 64}, [3]float64{2, 8, 32}},
	}
	for _, c := range cases {
		q1, med, q3 := quartiles(c.xs)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); got != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
}

func TestTailPercentile(t *testing.T) {
	for n, want := range map[int]int{1: 50, 19: 50, 20: 50, 26: 61, 30: 66, 100: 90, 128: 92, 450: 97, 1000: 99, 100000: 99} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = p%d, want p%d", n, got, want)
		}
	}
	// The rule itself: at least ten samples lie beyond the reported value,
	// and the next percentile up would leave fewer (or is capped at p99).
	beyond := func(n, p int) int { return n - int(math.Ceil(float64(p)/100*float64(n))) }
	for n := 20; n < 3000; n++ {
		p := tailPercentile(n)
		if beyond(n, p) < 10 {
			t.Fatalf("n=%d: p%d has only %d samples beyond it", n, p, beyond(n, p))
		}
		if p < 99 && float64(n)*(1-float64(p+1)/100) >= 10 {
			t.Fatalf("n=%d: p%d chosen although p%d still has ten samples beyond it", n, p, p+1)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for p, want := range map[int]float64{1: 1, 50: 5, 90: 9, 91: 10, 99: 10, 100: 10} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(p%d) = %v, want %v", p, got, want)
		}
	}
	o := newOutcome()
	steps := make([]float64, 100)
	for i := range steps {
		steps[i] = float64(i + 1)
	}
	// 170 steps in three replicates: p94 has ten beyond it. It is read
	// replicate by replicate (94, 47 and 19) and the median reported.
	o.sampleSteps(steps)
	o.sampleSteps(steps[:50])
	o.sampleSteps(steps[:20])
	o.reduce()
	if o.tailPct != 94 || o.metrics["step_tail_ms"] != 47 || o.metrics["step_p50_ms"] != 25.5 {
		t.Errorf("sampleSteps: p%d, tails %v medians %v", o.tailPct, o.samples["step_tail_ms"], o.samples["step_p50_ms"])
	}
}

// TestRescale: a machine that ran the reference work twice as slowly halves
// the durations and doubles the rates sampled since the count was taken, and
// leaves everything else alone.
func TestRescale(t *testing.T) {
	o := newOutcome()
	o.sample("wall_s", 3)
	o.sampleSteps([]float64{5})
	since := o.sampled()
	o.sample("wall_s", 4)
	o.sample("activations_per_s", 100)
	o.sample("checkpoint_mb", 7)
	o.sampleSteps([]float64{6, 8})
	o.rescale(since, 2)
	want := map[string][]float64{"wall_s": {3, 2}, "activations_per_s": {200}, "checkpoint_mb": {7}}
	if !reflect.DeepEqual(o.samples, want) || !reflect.DeepEqual(o.steps, [][]float64{{5}, {3, 4}}) {
		t.Errorf("samples %v steps %v, want %v and [[5] [3 4]]", o.samples, o.steps, want)
	}
}

func TestFailedShareAccounting(t *testing.T) {
	var o ops
	if o.share() != 0 {
		t.Fatalf("share with nothing attempted = %v", o.share())
	}
	o.did(96)
	if !o.check(true, "fine") || o.check(false, "digest %s differs", "abc") {
		t.Fatal("check does not return its verdict")
	}
	if !o.try(nil, "resume") || o.try(os.ErrNotExist, "reading spill") {
		t.Fatal("try does not return its verdict")
	}
	if o.attempted != 100 || o.failed != 2 || o.share() != 0.02 {
		t.Fatalf("attempted %d failed %d share %v, want 100, 2, 0.02", o.attempted, o.failed, o.share())
	}
	want := []string{"digest abc differs", "reading spill: file does not exist"}
	if !reflect.DeepEqual(o.failures, want) {
		t.Fatalf("failures %q, want %q", o.failures, want)
	}
}

func TestBoolArgs(t *testing.T) {
	got := boolArgs(strings.Fields("--workload round-walk --seed 3 --seconds 10 --trace 0"), "trace")
	want := strings.Fields("--workload round-walk --seed 3 --seconds 10 --trace=0")
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %q, want %q", got, want)
	}
	got = boolArgs(strings.Fields("-trace -workload all"), "trace")
	if want := strings.Fields("-trace -workload all"); !reflect.DeepEqual(got, want) {
		t.Errorf("a bare -trace must stay: got %q", got)
	}
}

func TestWorsening(t *testing.T) {
	if got := worsening("lower", 10, 11); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("lower-is-better 10 → 11 worsens by %v, want 0.1", got)
	}
	if got := worsening("higher", 10, 11); math.Abs(got+0.1) > 1e-12 {
		t.Errorf("higher-is-better 10 → 11 worsens by %v, want -0.1", got)
	}
}

// TestBenchmarkFile holds the committed BENCHMARK.json against the program's
// tables and against the limits of the benchmark contract.
func TestBenchmarkFile(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	bf, err := loadBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkBenchmarkFile(bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.EndToEnd) > 16 || len(bf.PerLayer) > 128 || bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("%d end-to-end and %d per-layer metrics, run_seconds %d: outside the contract", len(bf.EndToEnd), len(bf.PerLayer), bf.RunSeconds)
	}
	hasSetup := false
	for _, e := range bf.EndToEnd {
		hasSetup = hasSetup || (e.Name == "setup_s" && e.Unit == "s" && e.Better == "lower")
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
	for _, w := range bf.Workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("why of %s is not one line of at most 200 characters", w.Name)
		}
	}
	// A name the tables do not know must fail the start-up check, and so
	// must a metric that not every workload carries.
	listed := bf.EndToEnd
	bf.EndToEnd = append(listed[:len(listed):len(listed)], listed[0])
	bf.EndToEnd[len(listed)].Name, bf.EndToEnd[len(listed)].Unit, bf.EndToEnd[len(listed)].Better = "parallel_speedup", "ratio", "higher"
	if checkBenchmarkFile(bf) == nil {
		t.Error("a metric only the round workloads carry passed the start-up check")
	}
	bf.EndToEnd = listed
	bf.PerLayer[0].Name = "dataset.generate_msec"
	if checkBenchmarkFile(bf) == nil {
		t.Error("a misspelt metric name passed the start-up check")
	}
}

// TestSmoke runs all four workloads at smoke scale through the ledger — each
// in a child process, correctness checks on — and then one traced run.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the four workloads")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	var stdout, stderr bytes.Buffer
	l := ledger{root: root, stdout: &stdout, stderr: &stderr, seed: 7, seconds: 0.001, scale: "smoke", repeat: 1, workloads: workloadNames}
	doc, err := l.run()
	if err != nil {
		t.Fatalf("%v\n%s", err, stderr.String())
	}
	for _, w := range workloadNames {
		wd := doc.Workloads[w]
		if wd.Failed != 0 || wd.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", w, wd.Failed, wd.Attempted, wd.Failures)
		}
		for _, m := range endToEnd {
			s, ok := wd.Metrics[m.Name]
			if ok != carries(m, w) {
				t.Errorf("%s: metric %s present=%v, listed=%v", w, m.Name, ok, carries(m, w))
			}
			if ok && m.Name != "failed_share" && !(s.Median > 0) {
				t.Errorf("%s: %s = %v, want a positive number", w, m.Name, s.Median)
			}
		}
		if len(wd.Digests) == 0 {
			t.Errorf("%s: no digests", w)
		}
	}
	l.print(doc)
	if !strings.Contains(stdout.String(), "round-walk       wall_s") || !json.Valid(stdout.Bytes()[strings.Index(stdout.String(), "\n{"):]) {
		t.Errorf("ledger output is not the metric lines followed by a JSON document:\n%s", stdout.String())
	}

	l.trace, l.workloads = true, []string{wAsync}
	doc, err = l.run()
	if err != nil {
		t.Fatalf("%v\n%s", err, stderr.String())
	}
	wd := doc.Workloads[wAsync]
	if wd.Failed != 0 {
		t.Errorf("traced %s: %d operations failed: %v", wAsync, wd.Failed, wd.Failures)
	}
	for _, m := range perLayer {
		if _, ok := wd.Metrics[m.Name]; !ok {
			t.Errorf("traced %s: per-layer metric %s is missing", wAsync, m.Name)
		}
	}
	blob, err := os.ReadFile(filepath.Join(root, "bench", "out", "trace-"+wAsync+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var first span
	if err := json.Unmarshal(blob[:bytes.IndexByte(blob, '\n')], &first); err != nil || first.Name != "core.step" || first.End <= first.Start {
		t.Errorf("first span of the trace file: %+v (%v)", first, err)
	}
	t.Logf("smoke runs took %v", time.Since(start))
}
