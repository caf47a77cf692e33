package core

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"
	"unsafe"

	"github.com/specdag/specdag/internal/dag"
	"github.com/specdag/specdag/internal/dataset"
)

// scribble fills every free scratch model's parameters, gradients and batch
// buffers with NaN, and its index buffers with -1, so a use that read
// scratch before writing it would move a result or panic. It reaches the
// model's unexported fields by reflection, so a buffer nn adds later is
// covered too. It returns the number of words filled.
func scribble(b *body) int {
	b.freeMu.Lock()
	defer b.freeMu.Unlock()
	words := 0
	for _, s := range b.free {
		words += fillScratch(reflect.ValueOf(s.model).Elem())
	}
	return words
}

func fillScratch(v reflect.Value) int {
	words := 0
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if f.Name == "arch" {
				continue // configuration, not scratch
			}
			fv := v.Field(i)
			fv = reflect.NewAt(fv.Type(), unsafe.Pointer(fv.UnsafeAddr())).Elem()
			if f.Name == "acts" && fv.Type() == reflect.TypeOf([][]float64(nil)) && fv.Len() > 0 {
				// The per-sample acts[0] aliases the caller's input row.
				fv = fv.Slice(1, fv.Len())
			}
			words += fillScratch(fv)
		}
	case reflect.Slice:
		switch v.Type().Elem().Kind() {
		case reflect.Float64:
			for i := 0; i < v.Len(); i++ {
				v.Index(i).SetFloat(math.NaN())
			}
			words += v.Len()
		case reflect.Int:
			for i := 0; i < v.Len(); i++ {
				v.Index(i).SetInt(-1)
			}
			words += v.Len()
		default:
			for i := 0; i < v.Len(); i++ {
				words += fillScratch(v.Index(i))
			}
		}
	}
	return words
}

// TestScratchNeverLeaks pins what makes scratch shareable between clients:
// an activation writes every scratch word before it reads it. Both engines
// run once as they are and once with every free scratch entry scribbled over
// before every Step; results and tangle bytes must not move — across worker
// counts, poisoning (the flipped-prediction metric predicts on scratch),
// partial-layer sharing, reference averaging and, for the event engine,
// lookahead windows with compaction on.
func TestScratchNeverLeaks(t *testing.T) {
	rounds := []struct {
		name   string
		mutate func(*Config)
	}{
		{"baseline", func(c *Config) {}},
		{"poisoned", func(c *Config) {
			c.Poison = PoisonConfig{Fraction: 0.25, FlipA: 3, FlipB: 8, StartRound: 4, RandomAttackers: 1}
		}},
		{"partial-sharing", func(c *Config) { c.SharedLayers = 1; c.ReferenceWalks = 3 }},
	}
	for _, tc := range rounds {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("round/%s/workers-%d", tc.name, workers), func(t *testing.T) {
				run := func(dirty bool) ([]RoundResult, *Simulation) {
					cfg := smallConfig()
					cfg.ClientsPerRound = 6
					cfg.Workers = workers
					tc.mutate(&cfg)
					s, err := NewSimulation(smallFed(81), cfg)
					if err != nil {
						t.Fatal(err)
					}
					filled := 0
					for s.Round() < cfg.Rounds {
						if dirty {
							filled += scribble(s.body)
						}
						s.RunRound()
					}
					if dirty && filled == 0 {
						t.Fatal("no scratch word was scribbled; the run is vacuous")
					}
					return s.Results(), s
				}
				cleanHist, clean := run(false)
				dirtyHist, dirty := run(true)
				assertHistoriesIdentical(t, cleanHist, dirtyHist)
				assertDAGsIdentical(t, clean, dirty)
			})
		}
	}

	for _, compact := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("async/compaction-%v/workers-%d", compact, workers), func(t *testing.T) {
				run := func(dirty bool) ([]AsyncEvent, *AsyncSimulation) {
					cfg := asyncConfig()
					cfg.Workers = workers
					if compact {
						cfg.Duration = 45
						cfg.Selector = bandedSelector()
						cfg.Compaction = dag.Compaction{Width: 5, Live: 2, SpillDir: t.TempDir()}
					}
					a, err := NewAsyncSimulation(smallFed(82), cfg)
					if err != nil {
						t.Fatal(err)
					}
					var evs []AsyncEvent
					filled := 0
					for !a.done {
						if dirty {
							filled += scribble(a.body)
						}
						if ev, err := a.step(); err != nil {
							t.Fatal(err)
						} else if ev != nil {
							evs = append(evs, *ev)
						}
					}
					if dirty && filled == 0 {
						t.Fatal("no scratch word was scribbled; the run is vacuous")
					}
					if compact && a.DAG().LiveFloor() == 0 {
						t.Fatal("compaction never froze an epoch; the case is vacuous")
					}
					return evs, a
				}
				cleanEvs, clean := run(false)
				dirtyEvs, dirty := run(true)
				assertAsyncEventsIdentical(t, cleanEvs, dirtyEvs)
				assertAsyncResultsIdentical(t, clean.Result(), dirty.Result())
				if !bytes.Equal(asyncDAGBytes(t, clean), asyncDAGBytes(t, dirty)) {
					t.Fatal("DAG().WriteTo differs with scribbled scratch")
				}
			})
		}
	}
}

// TestScratchBoundedByWorkers: scratch scales with the activations that can
// run at once, not with the federation. After rounds over 100 clients the
// free list holds at most Workers entries — exactly one when activations run
// inline — and no client still holds a model.
func TestScratchBoundedByWorkers(t *testing.T) {
	fed := dataset.FMNISTClustered(dataset.FMNISTConfig{Clients: 100, TrainPerClient: 20, TestPerClient: 5, Seed: 83})
	for _, workers := range []int{1, 2, 4} {
		cfg := smallConfig()
		cfg.Rounds, cfg.ClientsPerRound, cfg.Workers = 4, 10, workers
		s, err := NewSimulation(fed, cfg)
		if err != nil {
			t.Fatal(err)
		}
		runAll(s)
		n := len(s.free)
		if n < 1 || n > workers || workers == 1 && n != 1 {
			t.Errorf("workers %d: %d scratch entries after %d activations, want 1..%d", workers, n, 4*10, workers)
		}
		for _, c := range s.clients {
			if c.model != nil {
				t.Fatalf("workers %d: client %d still holds a scratch model between activations", workers, c.id)
			}
		}
	}
}
