package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/specdag/specdag/internal/core"
	"github.com/specdag/specdag/internal/dag"
	"github.com/specdag/specdag/internal/lint/linttest"
	"github.com/specdag/specdag/internal/serve"
	"github.com/specdag/specdag/internal/sim"
	"github.com/specdag/specdag/internal/tipselect"
	"github.com/specdag/specdag/internal/wire"
)

func fields(s string) []string { return strings.Fields(s) }

// TestParseFlags: argv → engine, config and supervision options.
func TestParseFlags(t *testing.T) {
	syncOf := func(t *testing.T, p *plan) core.Config {
		t.Helper()
		if p.cfg == nil || p.acfg != nil {
			t.Fatalf("want the round engine's config only, got cfg=%v acfg=%v", p.cfg, p.acfg)
		}
		return *p.cfg
	}
	asyncOf := func(t *testing.T, p *plan) core.AsyncConfig {
		t.Helper()
		if p.acfg == nil || p.cfg != nil {
			t.Fatalf("want the event engine's config only, got cfg=%v acfg=%v", p.cfg, p.acfg)
		}
		return *p.acfg
	}
	cases := []struct {
		name  string
		args  string
		check func(t *testing.T, p *plan)
	}{
		{"defaults", "", func(t *testing.T, p *plan) {
			cfg := syncOf(t, p)
			if cfg.Rounds != sim.Quick.Rounds() || cfg.ClientsPerRound != sim.Quick.ClientsPerRound() || cfg.Seed != 42 {
				t.Errorf("quick defaults: %+v", cfg)
			}
			if cfg.Selector != (tipselect.AccuracyWalk{Alpha: 10}) {
				t.Errorf("selector %#v", cfg.Selector)
			}
			if cfg.Compaction.Enabled() || cfg.Poison.Enabled() || cfg.Faults.Enabled() {
				t.Errorf("unrequested features on: %+v", cfg)
			}
			if p.spec.Name != "FMNIST-clustered" || len(p.spec.Fed.Clients) != 30 {
				t.Errorf("spec %s with %d clients", p.spec.Name, len(p.spec.Fed.Clients))
			}
			if p.every != 5 || p.ckptEvery != 10 || p.ckptFile != "" || p.resumeFile != "" || p.eventsFile != "" {
				t.Errorf("supervision defaults: %+v", p)
			}
		}},
		{"full", "-full -dataset fedprox", func(t *testing.T, p *plan) {
			cfg := syncOf(t, p)
			if cfg.Rounds != sim.Full.Rounds() || cfg.ClientsPerRound != sim.Full.ClientsPerRound() || len(p.spec.Fed.Clients) != 30 {
				t.Errorf("full preset: rounds %d, %d/round, %d clients", cfg.Rounds, cfg.ClientsPerRound, len(p.spec.Fed.Clients))
			}
		}},
		{"overrides", "-rounds 7 -clients-per-round 3 -seed 9 -workers 2 -progress-every 2 -checkpoint c.sdc -checkpoint-every 4 -resume r.sdc -events e.sde -dot d.dot -save s.sdg",
			func(t *testing.T, p *plan) {
				cfg := syncOf(t, p)
				if cfg.Rounds != 7 || cfg.ClientsPerRound != 3 || cfg.Seed != 9 || cfg.Workers != 2 {
					t.Errorf("overrides: %+v", cfg)
				}
				if p.every != 2 || p.ckptFile != "c.sdc" || p.ckptEvery != 4 || p.resumeFile != "r.sdc" ||
					p.eventsFile != "e.sde" || p.dotFile != "d.dot" || p.saveFile != "s.sdg" {
					t.Errorf("supervision options: %+v", p)
				}
			}},
		{"accuracy dynamic", "-selector accuracy -norm dynamic -alpha 3 -depth-min 1 -depth-max 4", func(t *testing.T, p *plan) {
			want := tipselect.AccuracyWalk{Alpha: 3, Norm: tipselect.NormDynamic, DepthMin: 1, DepthMax: 4}
			if got := syncOf(t, p).Selector; got != want {
				t.Errorf("selector %#v, want %#v", got, want)
			}
		}},
		{"weighted", "-selector weighted -alpha 0.5 -depth-max 3", func(t *testing.T, p *plan) {
			if got, want := syncOf(t, p).Selector, (tipselect.WeightedWalk{Alpha: 0.5, DepthMax: 3}); got != want {
				t.Errorf("selector %#v, want %#v", got, want)
			}
		}},
		{"urts", "-selector urts", func(t *testing.T, p *plan) {
			if got := syncOf(t, p).Selector; got != (tipselect.URTS{}) {
				t.Errorf("selector %#v", got)
			}
		}},
		{"uniform", "-selector uniform -depth-min 2 -depth-max 5", func(t *testing.T, p *plan) {
			if got, want := syncOf(t, p).Selector, (tipselect.UniformWalk{DepthMin: 2, DepthMax: 5}); got != want {
				t.Errorf("selector %#v, want %#v", got, want)
			}
		}},
		{"compaction", "-depth-max 4 -compact-width 5", func(t *testing.T, p *plan) {
			if got, want := syncOf(t, p).Compaction, (dag.Compaction{Width: 5, Live: 2}); got != want {
				t.Errorf("compaction %+v, want %+v", got, want)
			}
		}},
		{"compaction live spill", "-async -depth-max 4 -compact-width 5 -compact-live 3 -compact-spill sp", func(t *testing.T, p *plan) {
			if got, want := asyncOf(t, p).Compaction, (dag.Compaction{Width: 5, Live: 3, SpillDir: "sp"}); got != want {
				t.Errorf("compaction %+v, want %+v", got, want)
			}
		}},
		{"poison", "-dataset fmnist-bywriter -poison-fraction 0.2 -poison-start 6", func(t *testing.T, p *plan) {
			want := core.PoisonConfig{Fraction: 0.2, FlipA: 3, FlipB: 8, StartRound: 6, Track: true}
			if got := syncOf(t, p).Poison; got != want {
				t.Errorf("poison %+v, want %+v", got, want)
			}
		}},
		{"workers", "-workers 3", func(t *testing.T, p *plan) {
			// The flag sizes the run's one budget, not a cap inside a
			// NumCPU-sized one.
			if cfg := syncOf(t, p); cfg.Pool.Size() != 3 || cfg.Workers != 3 {
				t.Errorf("-workers 3: a %d-slot budget with Workers %d", cfg.Pool.Size(), cfg.Workers)
			}
		}},
		{"async", "-async -duration 30 -min-cycle 2 -max-cycle 5 -net-delay 0 -workers 3", func(t *testing.T, p *plan) {
			a := asyncOf(t, p)
			if a.Duration != 30 || a.MinCycle != 2 || a.MaxCycle != 5 || a.NetworkDelay != 0 || a.Workers != 3 || a.Pool.Size() != 3 || a.Faults.Enabled() {
				t.Errorf("async config: %+v", a)
			}
		}},
		{"fault scenario", "-async -duration 40 -net-delay 0.25 -fault-scenario partition-heal", func(t *testing.T, p *plan) {
			a := asyncOf(t, p)
			want, err := sim.FaultScenario("partition-heal", 40, 0.25)
			if err != nil {
				t.Fatal(err)
			}
			if a.NetworkDelay != 0 || !a.Faults.Equal(want) {
				t.Errorf("faults %+v (net delay %v), want %+v with the scalar delay cleared", a.Faults, a.NetworkDelay, want)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := parseFlags(fields(tc.args))
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, p)
		})
	}
}

// TestParseFlagsRejections: contradictory, unknown or out-of-range arguments
// are errors that name the offending flag or value.
func TestParseFlagsRejections(t *testing.T) {
	for args, want := range map[string]string{
		"-async -rounds 5":                               "-rounds",
		"-async -clients-per-round 2":                    "-clients-per-round",
		"-async -poison-fraction 0.2":                    "-poison-fraction",
		"-poison-fraction -0.3":                          "-poison-fraction",
		"-poison-fraction NaN":                           "-poison-fraction",
		"-poison-fraction 1.5":                           "-poison-fraction",
		"-poison-fraction 0.2 -poison-start -1":          "-poison-start",
		"-rounds 10 -poison-start 10":                    "-poison-start",
		"-async -poison-start -5":                        "-poison-start",
		"-compact-live 3":                                "-compact-width",
		"-compact-spill dir":                             "-compact-width",
		"-fault-scenario churn-25":                       "requires -async",
		"-async -fault-scenario meteor":                  "unknown fault scenario",
		"-dataset mnist":                                 "unknown dataset",
		"-selector greedy":                               "unknown selector",
		"-norm l2":                                       "unknown normalization",
		"-async -depth-min 20 -depth-max 10":             "depth-min 20 exceeds depth-max 10",
		"-depth-min 5":                                   "depth-min 5 needs a depth-max",
		"-depth-min -1 -depth-max 4":                     "must not be negative",
		"-selector uniform -depth-max -3":                "must not be negative",
		"-progress-every 0":                              "-progress-every",
		"-progress-every -3":                             "-progress-every",
		"-async -duration 10 -progress-every 0":          "-progress-every",
		"-checkpoint run.sdc -checkpoint-every 0":        "-checkpoint-every",
		"-checkpoint-every -2":                           "-checkpoint-every",
		"-no-such-flag":                                  "not defined",
		"-rounds many":                                   "invalid value",
		"-alpha NaN":                                     "alpha NaN is not finite",
		"-alpha Inf":                                     "alpha +Inf is not finite",
		"-selector weighted -alpha -Inf":                 "alpha -Inf is not finite",
		"-async -net-delay NaN":                          "NetworkDelay must be finite",
		"-async -net-delay Inf":                          "NetworkDelay must be finite",
		"-async -duration NaN":                           "Duration must be finite",
		"-async -duration Inf":                           "Duration must be finite",
		"-async -min-cycle NaN":                          "MinCycle must be finite",
		"-async -max-cycle NaN":                          "MaxCycle must be finite",
		"-async -max-cycle Inf":                          "MaxCycle must be finite",
		"-async -fault-scenario churn-25 -net-delay NaN": "Delay must be finite",
	} {
		if _, err := parseFlags(fields(args)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("specdag %s: %v, want an error mentioning %q", args, err, want)
		}
	}
}

// TestNonFiniteAlphaExits: `specdag -alpha NaN` fails before anything runs
// with an error main exits 1 on, instead of running a uniform walk.
func TestNonFiniteAlphaExits(t *testing.T) {
	err := run([]string{"-dataset", "fedprox", "-alpha", "NaN"})
	if err == nil || errors.Is(err, flag.ErrHelp) || !strings.Contains(err.Error(), "alpha") {
		t.Fatalf("specdag -alpha NaN: %v, want an error naming alpha (exit 1)", err)
	}
}

// TestNamesAgreeWithDaemon: the command line and specdagd's RunRequest accept
// exactly the same dataset, selector and normalization names, and an unknown
// one is answered with the list.
func TestNamesAgreeWithDaemon(t *testing.T) {
	base := func() serve.RunRequest {
		return serve.RunRequest{Dataset: "fedprox", Preset: "quick", Selector: "urts", Norm: "standard"}
	}
	kinds := []struct {
		flag  string
		names []string
		set   func(*serve.RunRequest, string)
	}{
		{"-dataset", sim.DatasetNames(), func(r *serve.RunRequest, n string) { r.Dataset = n }},
		{"-selector", sim.SelectorNames(), func(r *serve.RunRequest, n string) { r.Selector = n }},
		{"-norm", sim.NormNames(), func(r *serve.RunRequest, n string) { r.Norm = n }},
	}
	for _, k := range kinds {
		for _, name := range append([]string{"bogus"}, k.names...) {
			_, cliErr := parseFlags([]string{"-dataset", "fedprox", k.flag, name})
			req := base()
			k.set(&req, name)
			_, _, _, reqErr := req.Configs(nil)
			if (cliErr == nil) != (name != "bogus") || (reqErr == nil) != (name != "bogus") {
				t.Errorf("%s %s: command line says %v, RunRequest says %v", k.flag, name, cliErr, reqErr)
			}
			if name != "bogus" {
				continue
			}
			for _, listed := range k.names {
				if !strings.Contains(cliErr.Error(), listed) || cliErr.Error() != reqErr.Error() {
					t.Errorf("%s bogus: %q / %q, want both to list %q", k.flag, cliErr, reqErr, listed)
				}
			}
		}
	}
}

// TestEventLogStartFrame: -events records the start frame the daemon would —
// RunRequest.Info's key set with the flag spellings as values — for both
// engines.
func TestEventLogStartFrame(t *testing.T) {
	for _, tc := range []struct {
		args string
		want wire.RunInfo
	}{
		{"-dataset fedprox -rounds 2 -clients-per-round 2 -selector uniform", wire.RunInfo{
			Engine: "specdag", Seed: 42, Config: map[string]string{
				"dataset": "fedprox", "preset": "quick", "selector": "uniform", "alpha": "10", "norm": "standard",
				"rounds": "2", "clients_per_round": "2",
			}}},
		{"-dataset fedprox -async -duration 3 -seed 7 -depth-max 3 -compact-width 2", wire.RunInfo{
			Engine: "specdag-async", Seed: 7, Config: map[string]string{
				"dataset": "fedprox", "preset": "quick", "selector": "accuracy", "alpha": "10", "norm": "standard",
				"depth_min": "0", "depth_max": "3", "compact_width": "2", "compact_live": "2",
				"duration": "3", "min_cycle": "1", "max_cycle": "8", "net_delay": "0.5",
			}}},
	} {
		path := filepath.Join(t.TempDir(), "run.sde")
		if err := run(append(fields(tc.args), "-events", path)); err != nil {
			t.Fatalf("specdag %s: %v", tc.args, err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		frames, err := wire.ReadAll(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(frames) < 3 || frames[0].Kind != wire.KindStart || frames[len(frames)-1].Kind != wire.KindEnd {
			t.Fatalf("specdag %s: log of %d frames lacks start/end", tc.args, len(frames))
		}
		if got := *frames[0].Start; !reflect.DeepEqual(got, tc.want) {
			t.Errorf("specdag %s: start frame\n got %+v\nwant %+v", tc.args, got, tc.want)
		}
	}
}

// dagstat reports on an artifact the way an operator reads it, through the
// inspector's command line: a main package cannot be imported, so it runs
// under the go command, which caches the linked binary. The packages it
// links are this test's too; its own source is opened so a change to it
// reruns the test.
func dagstat(t *testing.T, path string) string {
	t.Helper()
	if testing.Short() {
		t.Skip("runs cmd/dagstat through the go toolchain; skipped in -short mode")
	}
	linttest.DependOnSources(t, "../dagstat")
	out, err := exec.Command("go", "run", "../dagstat", "-in", path).CombinedOutput()
	if err != nil {
		t.Fatalf("dagstat -in %s: %v\n%s", path, err, out)
	}
	return string(out)
}

// TestCompactedRunSpills: an async run with compaction and a spill directory
// freezes its epochs into one spill log there, as long as the epochs record,
// and dagstat's report of its checkpoint places each epoch in it.
func TestCompactedRunSpills(t *testing.T) {
	spill, ckpt := t.TempDir(), filepath.Join(t.TempDir(), "run.sda")
	args := fields("-async -duration 100 -min-cycle 1 -max-cycle 4 -depth-min 10 -depth-max 20 -compact-width 30 -seed 7")
	if err := run(append(args, "-compact-spill", spill, "-checkpoint", ckpt)); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	info, _, err := core.InspectCheckpoint(bytes.NewReader(blob))
	if err != nil || info.FrozenEpochs == 0 {
		t.Fatalf("inspecting the checkpoint: %+v, %v; want frozen epochs", info, err)
	}
	files, err := os.ReadDir(spill)
	if err != nil || len(files) != 1 || files[0].Name() != "spill.log" {
		t.Fatalf("spill directory holds %v (%v), want one spill.log", files, err)
	}
	if fi, err := files[0].Info(); err != nil || fi.Size() != info.SpillBytes {
		t.Errorf("spill.log is %v bytes (%v), the checkpoint's epochs record %d", fi.Size(), err, info.SpillBytes)
	}
	if out := dagstat(t, ckpt); !strings.Contains(out, "\ncompaction: ") || !strings.Contains(out, "spill.log @0 (") {
		t.Errorf("dagstat on the compacted checkpoint:\n%s\nwant a compaction: report placing its epochs in the spill log", out)
	}
}
