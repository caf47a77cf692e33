package lint_test

import (
	"os/exec"
	"testing"

	"github.com/specdag/specdag/internal/lint/linttest"
)

// raceSeams names the tests that cross the goroutine seams the (config,
// seed) claim rests on: the lookahead windows and their overlays, the
// scratch free list, EvalCache's scoring scratch and walk buffers, the
// scheduler and budget, the broadcast ring, the daemon's persistence, and
// the tangle's lock-free readers.
const raceSeams = "WorkerCountInvariance|Overlay|Window|Scheduler|KillAnywhere|PauseResume|Broadcast|TestBudget|TestForEachIn|EvalCache|ConcurrentWalks|SampleAtDepthConcurrent|ConcurrentAddAndRead"

// TestRaceSeams runs those tests once under the race detector, so a data
// race on a seam fails the ordinary test run rather than only a separate
// -race job. It opens the module's sources so go test's cache reruns it when
// one changes.
func TestRaceSeams(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the go toolchain; skipped in -short mode")
	}
	linttest.DependOnSources(t, "../..")
	cmd := exec.Command("go", "test", "-race", "-count=1", "-run", raceSeams,
		"./internal/core/", "./internal/engine/", "./internal/serve/", "./internal/par/", "./internal/tipselect/", "./internal/dag/")
	cmd.Dir = "../.." // the module root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go test -race over the seams: %v\n%s", err, out[max(0, len(out)-8192):])
	}
}
