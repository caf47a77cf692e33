package lint_test

import (
	"testing"

	"github.com/specdag/specdag/internal/lint"
	"github.com/specdag/specdag/internal/lint/linttest"
)

// Each analyzer's fixture tree covers positive hits, clean code, and
// audited suppressions; the harness also exercises the suppression
// machinery itself, because lint.Check is the same entry point the vettool
// uses.

func TestDetrand(t *testing.T) {
	linttest.Run(t, linttest.TestData(), lint.Detrand,
		"detrand/internal/core", "detrand/internal/faults", "detrand/outside")
}

func TestMapOrder(t *testing.T) {
	linttest.Run(t, linttest.TestData(), lint.MapOrder,
		"maporder/internal/core")
}

func TestBudget(t *testing.T) {
	linttest.Run(t, linttest.TestData(), lint.Budget,
		"budget/app", "budget/internal/par", "budget/internal/serve",
		"budget/internal/engine")
}

func TestKernelOrder(t *testing.T) {
	linttest.Run(t, linttest.TestData(), lint.KernelOrder,
		"kernelorder/internal/mathx", "kernelorder/internal/xrand")
}

func TestForbid(t *testing.T) {
	linttest.Run(t, linttest.TestData(), lint.Forbid,
		"forbid/internal/core", "forbid/internal/dag", "forbid/internal/engine", "forbid/app", "forbid/bench", "forbid/bench_test")
}

// TestDirectiveAudit pins the directive diagnostics: malformed verbs,
// unknown analyzers, missing reasons, and stale suppressions are findings.
func TestDirectiveAudit(t *testing.T) {
	linttest.Run(t, linttest.TestData(), lint.Budget, "directives/app")
}

// TestDeterministicPkgSet pins the scope of the determinism contract so a
// rename or addition is a conscious decision here, not an accident.
func TestDeterministicPkgSet(t *testing.T) {
	for _, path := range []string{
		"github.com/specdag/specdag/internal/core",
		"github.com/specdag/specdag/internal/dag",
		"github.com/specdag/specdag/internal/faults",
		"github.com/specdag/specdag/internal/nn",
		"github.com/specdag/specdag/internal/mathx",
		"github.com/specdag/specdag/internal/tipselect",
		"github.com/specdag/specdag/internal/fl",
		"github.com/specdag/specdag/internal/engine",
		"github.com/specdag/specdag/internal/dataset",
		"github.com/specdag/specdag/internal/sim",
		"github.com/specdag/specdag/internal/graphx",
		"github.com/specdag/specdag/internal/metrics",
	} {
		if !lint.IsDeterministicPkg(path) {
			t.Errorf("IsDeterministicPkg(%q) = false, want true", path)
		}
	}
	for _, path := range []string{
		"github.com/specdag/specdag/internal/par",
		"github.com/specdag/specdag/internal/xrand",
		"github.com/specdag/specdag/internal/profiling",
		"github.com/specdag/specdag/internal/lint",
		"github.com/specdag/specdag/cmd/specdag",
		"github.com/specdag/specdag/internal/coreutils", // suffix must respect segment boundaries
		// The serving subsystem is the transport boundary: wall clock and
		// supervised goroutines are its job (see deterministicPkgs' doc).
		// Its exclusion is policy, pinned here.
		"github.com/specdag/specdag/internal/serve",
		"github.com/specdag/specdag/internal/wire",
		"github.com/specdag/specdag/cmd/specdagd",
	} {
		if lint.IsDeterministicPkg(path) {
			t.Errorf("IsDeterministicPkg(%q) = true, want false", path)
		}
	}
}
