package sim

import (
	"context"
	"os"
	"reflect"
	"testing"
)

// TestLongHaulQuickCompacts runs the quick-scale long-haul preset end to end
// and checks that the bounded-memory machinery actually engages: epochs
// freeze, parameters spill, and the final checkpoint reflects the compacted
// DAG. Seed 7 is chosen to avoid an early orphan tip (a round-0 tip that is
// never approved pins the freeze guard at round 0 forever — conservative and
// correct, but it would make this test vacuous).
func TestLongHaulQuickCompacts(t *testing.T) {
	rep, err := LongHaul(context.Background(), Env{}, Quick, t.TempDir(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Events < 1000 {
		t.Fatalf("quick long-haul processed only %d events", rep.Events)
	}
	if rep.FrozenEpochs == 0 || rep.FrozenTxs == 0 || rep.LiveFloor == 0 {
		t.Fatalf("compaction never engaged: %+v", rep)
	}
	if rep.SpillBytes == 0 {
		t.Fatalf("frozen epochs spilled nothing: %+v", rep)
	}
	if rep.CheckpointBytes == 0 {
		t.Fatalf("checkpoint sizing failed: %+v", rep)
	}
	t.Log("\n" + RenderLongHaul(rep))
}

// TestLongHaulBoundedRSS is the ROADMAP item 2 acceptance run: ~10^6 events
// at full scale in bounded memory. It takes minutes, so it only runs when
// SPECDAG_LONG_HAUL=1 (the nightly long-haul CI lane sets it).
func TestLongHaulBoundedRSS(t *testing.T) {
	if os.Getenv("SPECDAG_LONG_HAUL") != "1" {
		t.Skip("long-haul endurance run; set SPECDAG_LONG_HAUL=1 to enable")
	}
	rep, err := LongHaul(context.Background(), Env{}, Full, t.TempDir(), 7)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + RenderLongHaul(rep))
	if rep.Events < 900_000 {
		t.Fatalf("full long-haul processed only %d events, want ~10^6", rep.Events)
	}
	if rep.FrozenEpochs == 0 {
		t.Fatal("full-scale run froze no epochs")
	}
	// The bounded-memory claim. Uncompacted, ~500k published transactions at
	// ~230 float64 params each would hold >0.9 GiB of parameters alone; the
	// ceiling below is far under that, so a retention regression trips it.
	const heapCeiling = 512 << 20
	if rep.PeakHeapBytes > heapCeiling {
		t.Fatalf("peak heap %d bytes exceeds the %d-byte ceiling", rep.PeakHeapBytes, uint64(heapCeiling))
	}
	// Checkpoints must track the live suffix, not history: at full scale the
	// frozen prefix dwarfs the live window, so a few tens of MiB means
	// frozen params leaked back into the snapshot.
	const ckptCeiling = 64 << 20
	if rep.CheckpointBytes > ckptCeiling {
		t.Fatalf("final checkpoint %d bytes exceeds the %d-byte ceiling", rep.CheckpointBytes, int64(ckptCeiling))
	}
}

// TestLongHaulAsyncConfigMatchesSpec: the config is built from constants, so
// it must agree with what the generated federation's Spec derives.
func TestLongHaulAsyncConfigMatchesSpec(t *testing.T) {
	const seed = 7
	spec := LongHaulSpec(seed)
	for _, p := range []Preset{Quick, Full} {
		got := LongHaulAsyncConfig(p, "", seed)
		target, _ := longHaulScale(p)
		want := spec.AsyncDAGConfig(Env{}, float64(target)/(float64(len(spec.Fed.Clients))*0.9242), 0.5, 2, 0.5, spec.Selector, seed)
		if !reflect.DeepEqual(got.Arch, want.Arch) || got.Arch.In != spec.Fed.InputDim || got.Arch.Out != spec.Fed.NumClasses {
			t.Errorf("%s: Arch %+v, spec derives %+v", p, got.Arch, want.Arch)
		}
		if !reflect.DeepEqual(got.Local, want.Local) || !reflect.DeepEqual(got.Selector, want.Selector) || got.Duration != want.Duration {
			t.Errorf("%s: Local %+v, Selector %+v, Duration %v; spec derives %+v, %+v, %v",
				p, got.Local, got.Selector, got.Duration, want.Local, want.Selector, want.Duration)
		}
	}
}

// TestLongHaulAsyncConfigGeneratesNothing: building the config must not
// generate the 50-client federation (hundreds of allocations) to read its
// client count.
func TestLongHaulAsyncConfigGeneratesNothing(t *testing.T) {
	if allocs := testing.AllocsPerRun(10, func() { LongHaulAsyncConfig(Full, "", 7) }); allocs >= 20 {
		t.Fatalf("LongHaulAsyncConfig allocates %v times per call, want < 20", allocs)
	}
}
