package wire

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"

	"github.com/specdag/specdag/internal/core"
	"github.com/specdag/specdag/internal/dataset"
	"github.com/specdag/specdag/internal/engine"
	"github.com/specdag/specdag/internal/fl"
	"github.com/specdag/specdag/internal/nn"
	"github.com/specdag/specdag/internal/tipselect"
)

// gobOrderEnv selects, in a re-executed test binary, which of the module's
// gob users runs first.
const gobOrderEnv = "SPECDAG_TEST_GOB_ORDER"

// TestBytesDoNotDependOnWhoMeetsGobFirst: gob assigns type ids process-wide
// in order of first use and writes them into its streams. Checkpoints used to
// carry a gob value, and their bytes depended on whether an SDE1 stream had
// been written or read earlier in the process (and the other way round); now
// they carry no gob at all, and SDE1's own ids are assigned by wire's init.
// Two fresh processes produce the three artifacts in opposite orders; their
// bytes must agree.
func TestBytesDoNotDependOnWhoMeetsGobFirst(t *testing.T) {
	if order := os.Getenv(gobOrderEnv); order != "" {
		gobOrderChild(t, order)
		return
	}
	digests := func(order string) string {
		cmd := exec.Command(os.Args[0], "-test.run=^TestBytesDoNotDependOnWhoMeetsGobFirst$", "-test.v")
		cmd.Env = append(os.Environ(), gobOrderEnv+"="+order)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s: %v\n%s", order, err, out)
		}
		var lines []string
		for _, line := range strings.Split(string(out), "\n") {
			if i := strings.Index(line, "digest "); i >= 0 {
				lines = append(lines, line[i:])
			}
		}
		if len(lines) != 3 {
			t.Fatalf("%s: %d digests in\n%s", order, len(lines), out)
		}
		return strings.Join(lines, "\n")
	}
	if a, b := digests("stream-first"), digests("checkpoints-first"); a != b {
		t.Fatalf("bytes depend on the order of first use:\nstream first:\n%s\ncheckpoints first:\n%s", a, b)
	}
}

// gobOrderChild writes and reads an SDE1 stream of every payload type and
// checkpoints one engine of each kind, in the given order — the second order
// also meets the stream's payload types in another order first — and prints
// a digest of each artifact under an order-independent name.
func gobOrderChild(t *testing.T, order string) {
	fedAvg := Frame{Index: 18, Kind: KindRound, Round: &engine.RoundEvent{Engine: "fedavg", Detail: &fl.RoundResult{Round: 2}}}
	encode := func(frames []Frame) []byte {
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for i := range frames {
			if err := w.WriteFrame(&frames[i]); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := ReadAll(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	// Without the Start frame: gob writes its Config map in iteration order.
	stream := func() (string, []byte) { return "stream", encode(append(sampleFrames()[1:], fedAvg)) }
	// Another run's stream, whose first payload is the one stream's last.
	other := func() (string, []byte) { return "", encode([]Frame{fedAvg}) }
	fed := dataset.FMNISTClustered(dataset.FMNISTConfig{Clients: 3, TrainPerClient: 12, TestPerClient: 6, Seed: 7})
	local, arch := nn.SGDConfig{LR: 0.05, Epochs: 1, BatchSize: 4}, nn.Arch{In: 64, Hidden: []int{4}, Out: 10}
	checkpoint := func(eng engine.Engine, err error) []byte {
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if _, _, err := eng.Step(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if _, err := eng.(engine.Snapshotter).WriteCheckpoint(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	sync := func() (string, []byte) {
		return "sync", checkpoint(core.NewSimulation(fed, core.Config{Rounds: 4, ClientsPerRound: 2,
			Local: local, Arch: arch, Selector: tipselect.AccuracyWalk{Alpha: 10}, Seed: 9}))
	}
	async := func() (string, []byte) {
		return "async", checkpoint(core.NewAsyncSimulation(fed, core.AsyncConfig{Duration: 8, MinCycle: 1, MaxCycle: 4,
			NetworkDelay: 0.5, Local: local, Arch: arch, Selector: tipselect.AccuracyWalk{Alpha: 10}, Seed: 9}))
	}
	steps := []func() (string, []byte){stream, sync, async}
	if order == "checkpoints-first" {
		steps = []func() (string, []byte){async, sync, other, stream}
	}
	got := map[string]string{}
	for _, step := range steps {
		name, blob := step()
		got[name] = fmt.Sprintf("digest %s %d bytes %x", name, len(blob), sha256.Sum256(blob))
	}
	for _, name := range []string{"stream", "sync", "async"} {
		fmt.Println(got[name])
	}
}
