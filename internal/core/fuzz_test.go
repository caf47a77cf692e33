package core

// FuzzCheckpointDecode hammers every checkpoint decoder — InspectCheckpoint
// plus both resume paths — with arbitrary bytes. The contract under fuzzing
// is the corruption battery's, generalized: malformed input of any shape
// must come back as a non-empty, actionable error (or a successful resume of
// a genuinely valid checkpoint), never a panic. The seed corpus contains a
// valid checkpoint of each SDC1-family variant (sync SDC1 and async SDA1),
// the committed golden fixtures, a bare SDG1 DAG snapshot, and assorted
// truncations/mutations, so the fuzzer starts at the real formats and
// mutates inward into the gob payload and the embedded DAG codec.

import (
	"bytes"
	"os"
	"testing"
)

func FuzzCheckpointDecode(f *testing.F) {
	fed := goldenFed()
	syncCfg := goldenSyncConfig()
	asyncCfg := goldenAsyncConfig()

	// Seed with a freshly written checkpoint of each variant…
	sim, err := NewSimulation(fed, syncCfg)
	if err != nil {
		f.Fatal(err)
	}
	sim.RunRound()
	var syncSnap bytes.Buffer
	if _, err := sim.WriteCheckpoint(&syncSnap); err != nil {
		f.Fatal(err)
	}
	async, err := NewAsyncSimulation(fed, asyncCfg)
	if err != nil {
		f.Fatal(err)
	}
	for async.Events() < 2 {
		async.step()
	}
	var asyncSnap bytes.Buffer
	if _, err := async.WriteCheckpoint(&asyncSnap); err != nil {
		f.Fatal(err)
	}
	var dagSnap bytes.Buffer
	if _, err := sim.DAG().WriteTo(&dagSnap); err != nil {
		f.Fatal(err)
	}
	f.Add(syncSnap.Bytes())
	f.Add(asyncSnap.Bytes())
	f.Add(dagSnap.Bytes())

	// …the committed golden fixtures (ignore errors: the corpus is best
	// effort if the fixtures are absent)…
	for _, p := range []string{goldenSyncPathV2, goldenAsyncPathV2, goldenSyncPathV3, goldenAsyncPathV3} {
		if blob, err := os.ReadFile(p); err == nil {
			f.Add(blob)
		}
	}

	// …and malformed variants: truncations, a magic swap (sync payload
	// behind the async magic and vice versa), a flipped tangle header byte.
	f.Add(syncSnap.Bytes()[:4])
	f.Add(asyncSnap.Bytes()[:syncSnap.Len()/2])
	f.Add([]byte{})
	f.Add([]byte("SDC3"))
	f.Add([]byte("SDA3garbage"))
	swapped := append([]byte("SDA3"), syncSnap.Bytes()[4:]...)
	f.Add(swapped)
	swapped2 := append([]byte("SDC3"), asyncSnap.Bytes()[4:]...)
	f.Add(swapped2)
	// The tangle section of syncSnap is dagSnap's bytes behind the magic.
	boundary := 4 + dagSnap.Len()
	f.Add(syncSnap.Bytes()[:boundary/2])                          // inside a record
	f.Add(syncSnap.Bytes()[:boundary])                            // the state section is missing
	f.Add(syncSnap.Bytes()[:(boundary+syncSnap.Len())/2])         // inside the state section
	f.Add(append([]byte("SDC2"), syncSnap.Bytes()[4:]...))        // a v3 body behind the v2 magic
	f.Add(append([]byte("SDC2"), syncSnap.Bytes()[boundary:]...)) // a v2 file without its tangle
	flipped := append([]byte(nil), asyncSnap.Bytes()...)
	flipped[7] ^= 0xff
	f.Add(flipped)
	// The event-stream sibling (internal/wire, magic SDE1): its header over
	// a checkpoint payload must come back as the "this is an event log"
	// error, never a decode attempt.
	f.Add([]byte("SDE1"))
	f.Add(append([]byte("SDE1"), syncSnap.Bytes()[4:]...))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip("bounded: real checkpoints of the fuzz config are ~20KB")
		}
		if _, _, err := InspectCheckpoint(bytes.NewReader(data)); err != nil && err.Error() == "" {
			t.Fatal("InspectCheckpoint returned an empty error")
		}
		if _, err := ResumeSimulation(fed, syncCfg, bytes.NewReader(data)); err != nil && err.Error() == "" {
			t.Fatal("ResumeSimulation returned an empty error")
		}
		if _, err := ResumeAsyncSimulation(fed, asyncCfg, bytes.NewReader(data)); err != nil && err.Error() == "" {
			t.Fatal("ResumeAsyncSimulation returned an empty error")
		}
	})
}
