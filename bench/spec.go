package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
)

// Workload names. They are fixed: every later performance claim names one
// end-to-end metric on one of these.
const (
	wRoundWalk  = "round-walk"
	wRoundTrain = "round-train"
	wAsync      = "async-longhaul"
	wServe      = "serve-multiplex"
)

var workloadNames = []string{wRoundWalk, wRoundTrain, wAsync, wServe}

// metricDef describes one end-to-end metric of the ledger.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	// Bound is the share of the reference median by which the metric may get
	// worse before a change counts as a regression.
	Bound float64
	// Workloads lists the workloads that carry the metric; a workload's
	// output never holds a metric that is not listed for it.
	Workloads []string
}

var (
	allWorkloads = workloadNames
	roundLoads   = []string{wRoundWalk, wRoundTrain}
	serveOnly    = []string{wServe}
)

// endToEnd is the ledger's full list of end-to-end metrics. BENCHMARK.json
// lists some of those every workload carries (the driver wants every listed
// metric from every run, and holds each to its bound); the rest are printed
// by the ledger only. checkBenchmarkFile holds the two against each other at
// start-up.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, allWorkloads},
	{"wall_s", "s", "lower", 0.25, allWorkloads},
	{"activations_per_s", "1/s", "higher", 0.25, allWorkloads},
	{"step_p50_ms", "ms", "lower", 0.25, allWorkloads},
	{"step_tail_ms", "ms", "lower", 0.25, allWorkloads},
	{"peak_rss_mb", "MB", "lower", 0.20, allWorkloads},
	{"live_heap_end_mb", "MB", "lower", 0.15, allWorkloads},
	{"checkpoint_write_ms", "ms", "lower", 0.25, allWorkloads},
	{"resume_ms", "ms", "lower", 0.25, allWorkloads},
	{"checkpoint_mb", "MB", "lower", 0.25, allWorkloads},
	{"final_acc", "fraction", "higher", 0.10, allWorkloads},
	{"parallel_speedup", "ratio", "higher", 0.25, roundLoads},
	{"stream_frames_per_s", "1/s", "higher", 0.25, serveOnly},
	{"first_frame_ms", "ms", "lower", 0.25, serveOnly},
	{"replay_frames_per_s", "1/s", "higher", 0.25, serveOnly},
	{"failed_share", "fraction", "lower", 0, allWorkloads},
	// The machine's, not the program's (machine.go): the share of the
	// reference machine's speed the timings above were scaled by.
	{"machine_factor", "ratio", "lower", 1, allWorkloads},
}

// layerMetric describes one per-layer metric of the traced run. The layer is
// the part of the name before the first dot — a package of the repository,
// or "bench" for the harness itself.
type layerMetric struct {
	Name   string
	Unit   string
	Better string
}

// perLayer is the list a traced run reports, in full, for every workload:
// the probes take the workload's shapes, its live DAG and its frames as
// input, so the same probe gives each workload its own number.
var perLayer = []layerMetric{
	{"dataset.generate_ms", "ms", "lower"},

	{"mathx.affine_relu_ns_per_row", "ns", "lower"},
	{"mathx.accum_grads_ns_per_row", "ns", "lower"},
	{"mathx.backprop_ns_per_row", "ns", "lower"},
	{"mathx.softmax_ns_per_row", "ns", "lower"},
	{"mathx.computed_mflop_per_activation", "Mflop", "lower"},

	{"nn.train_us_per_call", "us", "lower"},
	{"nn.train_allocs_per_call", "count", "lower"},
	{"nn.eval_us_per_model", "us", "lower"},
	{"nn.eval_many_us_per_model", "us", "lower"},
	{"nn.train_share", "fraction", "lower"},
	{"nn.eval_share", "fraction", "lower"},

	{"tipselect.walk_us_cold", "us", "lower"},
	{"tipselect.walk_us_warm", "us", "lower"},
	{"tipselect.steps_per_walk", "count", "lower"},
	{"tipselect.evals_per_walk", "count", "lower"},
	{"tipselect.cache_hit_ratio", "fraction", "higher"},
	{"tipselect.cache_misses_per_activation", "count", "lower"},
	{"tipselect.walk_share", "fraction", "lower"},

	{"dag.sample_at_depth_us", "us", "lower"},
	{"dag.sample_at_depth_share", "fraction", "lower"},
	{"dag.depths_us", "us", "lower"},
	{"dag.children_ns_per_call", "ns", "lower"},
	{"dag.tips_us_per_call", "us", "lower"},
	{"dag.add_us_per_tx", "us", "lower"},
	{"dag.cumweights_ms_cold", "ms", "lower"},
	{"dag.cumweights_us_cached", "us", "lower"},
	{"dag.compact_ms_per_freeze", "ms", "lower"},
	{"dag.spill_write_mb_per_s", "MB/s", "higher"},
	{"dag.spill_reload_us_per_tx", "us", "lower"},
	{"dag.encode_mb_per_s", "MB/s", "higher"},
	{"dag.decode_mb_per_s", "MB/s", "higher"},
	{"dag.live_txs", "count", "lower"},
	{"dag.frozen_txs", "count", "higher"},
	{"dag.tips_mean", "count", "lower"},
	{"dag.spill_mb", "MB", "lower"},

	{"core.step_us_mean", "us", "lower"},
	{"core.step_cpu_us_mean", "us", "lower"},
	{"core.step_max_ms", "ms", "lower"},
	{"core.step_unattributed_share", "fraction", "lower"},
	{"core.publish_ratio", "fraction", "higher"},
	{"core.evals_per_activation", "count", "lower"},
	{"core.checkpoint_write_mb_per_s", "MB/s", "higher"},
	{"core.checkpoint_bytes_per_live_tx", "B", "lower"},
	{"core.checkpoints_per_1k_units", "count", "lower"},
	{"core.checkpoint_share", "fraction", "lower"},

	{"engine.run_overhead_ns_per_unit", "ns", "lower"},
	{"engine.sched_dispatch_ns_per_unit", "ns", "lower"},
	{"engine.sched_steals", "count", "lower"},
	{"engine.sched_dispatches", "count", "lower"},

	{"par.foreach_ns_per_item", "ns", "lower"},
	{"par.budget_peak", "count", "higher"},

	{"wire.encode_ns_per_frame", "ns", "lower"},
	{"wire.decode_ns_per_frame", "ns", "lower"},
	{"wire.bytes_per_frame", "B", "lower"},

	{"serve.append_ns_per_frame", "ns", "lower"},
	{"serve.append_2sub_ns_per_frame", "ns", "lower"},
	{"serve.next_ns_per_frame", "ns", "lower"},
	{"serve.spill_replay_mb_per_s", "MB/s", "higher"},
	{"serve.gap_frames", "count", "lower"},
	{"serve.submit_ms", "ms", "lower"},
	{"serve.http_flushes_per_frame", "count", "lower"},

	{"bench.trace_overhead_share", "fraction", "lower"},
	{"bench.trace_wall_ratio_share", "fraction", "lower"},
}

func carries(m metricDef, workload string) bool { return slices.Contains(m.Workloads, workload) }

func isWorkload(name string) bool { return slices.Contains(workloadNames, name) }

// benchmarkFile is the shape of BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// findRoot walks up from the working directory to the directory that holds
// BENCHMARK.json: the repository root, wherever the binary was started.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("bench: no BENCHMARK.json in the working directory or above it")
		}
		dir = parent
	}
}

func loadBenchmarkFile(root string) (*benchmarkFile, error) {
	blob, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(blob, &bf); err != nil {
		return nil, fmt.Errorf("bench: decoding BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// checkBenchmarkFile holds BENCHMARK.json against the tables in this file, so
// that a typo in either fails at start-up instead of producing a run whose
// output the driver cannot match: every name is well-formed and used once,
// the workloads are exactly the program's, every end-to-end metric listed is
// one every workload carries (with the same unit, direction and bound), and
// the per-layer list is exactly perLayer.
func checkBenchmarkFile(bf *benchmarkFile) error {
	seen := map[string]bool{}
	use := func(kind, name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("bench: %s name %q is not made of [A-Za-z0-9_.-]", kind, name)
		}
		if seen[name] {
			return fmt.Errorf("bench: name %q is used twice", name)
		}
		seen[name] = true
		return nil
	}

	if len(bf.Workloads) != len(workloadNames) {
		return fmt.Errorf("bench: BENCHMARK.json lists %d workloads, the program has %d", len(bf.Workloads), len(workloadNames))
	}
	for i, w := range bf.Workloads {
		if err := use("workload", w.Name); err != nil {
			return err
		}
		if w.Name != workloadNames[i] {
			return fmt.Errorf("bench: BENCHMARK.json workload %d is %q, the program's is %q", i, w.Name, workloadNames[i])
		}
	}

	table := map[string]metricDef{}
	for _, m := range endToEnd {
		if !nameRE.MatchString(m.Name) {
			return fmt.Errorf("bench: metric name %q is not made of [A-Za-z0-9_.-]", m.Name)
		}
		table[m.Name] = m
	}
	for _, e := range bf.EndToEnd {
		if err := use("metric", e.Name); err != nil {
			return err
		}
		m, ok := table[e.Name]
		if !ok || e.Unit != m.Unit || e.Better != m.Better || e.Bound != m.Bound {
			return fmt.Errorf("bench: BENCHMARK.json end-to-end metric %+v is not the program's %+v", e, m)
		}
		if len(m.Workloads) != len(workloadNames) {
			return fmt.Errorf("bench: BENCHMARK.json lists %s, which only %v carry: the driver wants every listed metric from every run", e.Name, m.Workloads)
		}
	}

	if len(bf.PerLayer) != len(perLayer) {
		return fmt.Errorf("bench: BENCHMARK.json lists %d per-layer metrics, the program reports %d", len(bf.PerLayer), len(perLayer))
	}
	for i, e := range bf.PerLayer {
		if err := use("metric", e.Name); err != nil {
			return err
		}
		m := perLayer[i]
		if e.Name != m.Name || e.Unit != m.Unit || e.Better != m.Better {
			return fmt.Errorf("bench: BENCHMARK.json per-layer metric %d is %+v, the program's is %+v", i, e, m)
		}
	}
	return nil
}

// contractMetrics returns the names the driver expects from one run.
func contractMetrics(bf *benchmarkFile, trace bool) []string {
	var names []string
	if trace {
		for _, e := range bf.PerLayer {
			names = append(names, e.Name)
		}
		return names
	}
	for _, e := range bf.EndToEnd {
		names = append(names, e.Name)
	}
	return names
}
