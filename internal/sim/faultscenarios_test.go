package sim

import (
	"context"
	"reflect"
	"strings"
	"testing"
)

func TestFaultScenarioResolution(t *testing.T) {
	for _, name := range FaultScenarioNames() {
		cfg, err := FaultScenario(name, 12, 0.5)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s resolves to an invalid schedule: %v", name, err)
		}
		if !cfg.Enabled() {
			t.Errorf("%s resolves to a disabled schedule", name)
		}
	}
	if _, err := FaultScenario("meteor-strike", 12, 0.5); err == nil ||
		!strings.Contains(err.Error(), "partition-heal") {
		t.Errorf("unknown scenario: got %v, want an error naming the valid scenarios", err)
	}
}

// TestFaultSweepDeterminism pins that the sweep's rows — accuracy
// trajectories and communication counters under partitions, stragglers and
// churn — are a pure function of (preset, seed): two runs on the shared
// worker pool produce identical rows. Cross-worker-count invariance of the
// underlying engine is pinned by TestAsyncFaultWorkerInvariance
// (internal/core) and for this sweep by the faults/* lines of
// TestExperimentsGolden.
func TestFaultSweepDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("two full fault sweeps")
	}
	a, err := FaultSweep(context.Background(), Env{}, Quick, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(FaultScenarioNames()) {
		t.Fatalf("sweep produced %d rows, want %d", len(a), len(FaultScenarioNames()))
	}
	for _, r := range a {
		if r.Events == 0 || r.Transactions == 0 {
			t.Errorf("%s: empty run (%+v)", r.Scenario, r)
		}
		if r.Dropped == 0 || r.Duplicated == 0 {
			t.Errorf("%s: the lossy base network priced no drops/duplicates (%+v)", r.Scenario, r)
		}
	}
	b, err := FaultSweep(context.Background(), Env{}, Quick, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("fault sweep not deterministic:\n first %+v\nsecond %+v", a, b)
	}
}
