package tipselect

// Model-based tests for EvalCache: byte-driven operation sequences run on a
// real cache and on a map oracle, which must agree on every value, on Hits
// and Misses, and on when a weight vector is computed. Every weight vector
// handed out stays checked until the sequence ends, so arena growth, a
// parameter switch or Advance that rewrote one would show.

import (
	"math"
	"reflect"
	"testing"
	"unsafe"

	"github.com/specdag/specdag/internal/dag"
	"github.com/specdag/specdag/internal/xrand"
)

// modelTxs is the size of the model's tangle; StepWeights also draws IDs a
// little past it (weights need no transaction).
const modelTxs = 48

// cacheOracle is what an EvalCache should hold: which transactions are
// scored, the child count each memoized weight vector was computed for, the
// parameters those vectors were computed under, the floor and the counters.
type cacheOracle struct {
	floor        dag.ID
	scored       map[dag.ID]bool
	weights      map[dag.ID]int
	alpha        float64
	norm         Normalization
	hits, misses int
}

// scribbled keeps the model's appends to handed-out vectors observable.
var scribbled []float64

// handedOut is one vector StepWeights returned and the values it held then.
type handedOut struct {
	got, want []float64
}

// modelWeight is element k of the weight vector the model computes for id
// with n children under the parameter pair numbered param.
func modelWeight(id dag.ID, n, param, k int) float64 {
	return float64(((int(id)*131+n)*8+param)*70000 + k)
}

func batchScore(ps [][]float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = scoreByFirstParam(p)
	}
	return out
}

// runEvalCacheModel interprets ops as a sequence of Accuracy,
// AccuracyManyInto, StepWeights and Advance calls on a fresh cache over d
// (modelTxs transactions) and checks the cache against the oracle after
// each one.
func runEvalCacheModel(t *testing.T, d *dag.DAG, ops []byte) {
	t.Helper()
	e := NewEvalCache(scoreByFirstParam, batchScore)
	o := cacheOracle{scored: map[dag.ID]bool{}, weights: map[dag.ID]int{}}
	children := map[dag.ID]int{}
	params := []struct {
		alpha float64
		norm  Normalization
	}{{10, NormStandard}, {10, NormDynamic}, {1, NormStandard}, {math.NaN(), NormStandard}}
	var kept []handedOut
	next := func() int {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return int(b)
	}
	for step := 0; len(ops) > 0; step++ {
		op := next() % 8
		switch op {
		case 0, 1:
			tx := d.MustGet(dag.ID(next() % modelTxs))
			if got, want := e.Accuracy(tx), scoreByFirstParam(tx.Params); got != want {
				t.Fatalf("step %d: Accuracy(%d) = %v, want %v", step, tx.ID, got, want)
			}
			o.score([]*dag.Transaction{tx})
		case 2:
			txs := make([]*dag.Transaction, 1+next()%4)
			for i := range txs {
				txs[i] = d.MustGet(dag.ID(next() % modelTxs))
			}
			got := e.AccuracyManyInto([]float64{-1}, txs)
			if len(got) != 1+len(txs) || got[0] != -1 {
				t.Fatalf("step %d: AccuracyManyInto mangled dst: %v", step, got)
			}
			for i, tx := range txs {
				if want := scoreByFirstParam(tx.Params); got[1+i] != want {
					t.Fatalf("step %d: AccuracyManyInto[%d] (tx %d) = %v, want %v", step, i, tx.ID, got[1+i], want)
				}
			}
			o.score(txs)
		case 3, 4, 5, 6:
			id := dag.ID(next() % (modelTxs + 8))
			grow, pi := next(), 0
			if b := next(); b%8 == 7 {
				pi = 1 + b/8%(len(params)-1) // now and then other parameters
			}
			// Child counts only grow, as in an append-only tangle; now and
			// then a count no slot can record.
			if grow%4 == 0 || children[id] == 0 {
				children[id]++
			}
			n := children[id]
			if grow%32 == 31 {
				n = math.MaxUint16 + 1
			}
			p := params[pi]
			computed := false
			w := e.StepWeights(id, n, p.alpha, p.norm, func(dst []float64) []float64 {
				computed = true
				for k := 0; k < n; k++ {
					dst = append(dst, modelWeight(id, n, pi, k))
				}
				return dst
			})
			if want := o.stepWeights(id, n, p.alpha, p.norm); computed != want {
				t.Fatalf("step %d: StepWeights(%d, %d children, param %d) computed=%v, want %v", step, id, n, pi, computed, want)
			}
			if len(w) != n {
				t.Fatalf("step %d: StepWeights(%d) returned %d weights, want %d", step, id, len(w), n)
			}
			for k := range w {
				if want := modelWeight(id, n, pi, k); w[k] != want {
					t.Fatalf("step %d: StepWeights(%d)[%d] = %v, want %v", step, id, k, w[k], want)
				}
			}
			if n <= 16 {
				kept = append(kept, handedOut{got: w, want: append([]float64(nil), w...)})
			}
			// A caller appending to its vector must not reach another one.
			scribbled = append(w, math.Inf(-1))
		case 7:
			b := next()
			floor := o.floor - dag.ID(b%3) // at or below the floor: no-op
			if b%32 == 31 {
				floor = modelTxs + 8 + dag.ID(b%5) // past the end
			} else if b%2 == 1 {
				floor = o.floor + 1 + dag.ID(b%4) // mid-range
			}
			e.Advance(floor)
			o.advance(floor)
		}
		if e.Hits() != o.hits || e.Misses() != o.misses {
			t.Fatalf("step %d (op %d): hits/misses %d/%d, want %d/%d", step, op, e.Hits(), e.Misses(), o.hits, o.misses)
		}
		for i, h := range kept {
			for k := range h.want {
				if h.got[k] != h.want[k] {
					t.Fatalf("step %d (op %d): vector %d handed out earlier now holds %v at %d, want %v", step, op, i, h.got[k], k, h.want[k])
				}
			}
		}
	}
}

// score accounts one Accuracy or AccuracyManyInto call: every lookup
// happens before any insert, so a batch naming an unscored transaction twice
// misses twice.
func (o *cacheOracle) score(txs []*dag.Transaction) {
	for _, tx := range txs {
		if o.scored[tx.ID] {
			o.hits++
		} else {
			o.misses++
		}
	}
	for _, tx := range txs {
		if tx.ID >= o.floor {
			o.scored[tx.ID] = true
		}
	}
}

// stepWeights accounts one StepWeights call and reports whether it computes.
func (o *cacheOracle) stepWeights(id dag.ID, n int, alpha float64, norm Normalization) bool {
	if math.IsNaN(alpha) || n > math.MaxUint16 {
		return true
	}
	if alpha == o.alpha && norm == o.norm && o.weights[id] == n {
		return false
	}
	if alpha != o.alpha || norm != o.norm {
		o.weights = map[dag.ID]int{}
		o.alpha, o.norm = alpha, norm
	}
	if id >= o.floor {
		o.weights[id] = n
	}
	return true
}

func (o *cacheOracle) advance(floor dag.ID) {
	if floor <= o.floor {
		return
	}
	for id := range o.scored {
		if id < floor {
			delete(o.scored, id)
		}
	}
	for id := range o.weights {
		if id < floor {
			delete(o.weights, id)
		}
	}
	o.floor = floor
}

// TestEvalCacheModel runs seeded operation sequences against the oracle.
func TestEvalCacheModel(t *testing.T) {
	d := cacheTestDAG(t, modelTxs, 11)
	for seed := int64(1); seed <= 40; seed++ {
		rng := xrand.New(seed)
		ops := make([]byte, 600)
		for i := range ops {
			ops[i] = byte(rng.Intn(256))
		}
		runEvalCacheModel(t, d, ops)
	}
}

// FuzzEvalCacheModel: any operation sequence keeps the cache equal to the
// oracle.
func FuzzEvalCacheModel(f *testing.F) {
	f.Add([]byte{2, 5, 0, 0, 2, 5, 0, 0, 2, 5, 1, 0, 2, 5, 0, 1, 3, 7, 2, 5, 0, 0})
	f.Add([]byte{1, 3, 4, 4, 9, 9, 0, 4, 2, 9, 31, 2, 2, 9, 0, 3, 3, 15, 0, 9})
	f.Add([]byte{2, 50, 0, 0, 2, 60, 0, 0, 2, 50, 0, 0, 3, 5, 2, 50, 2, 0, 2, 60, 0, 0})
	d := cacheTestDAG(f, modelTxs, 11)
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 1024 {
			ops = ops[:1024]
		}
		runEvalCacheModel(t, d, ops)
	})
}

// TestSlotLayout: a run keeps one slot per (client, transaction), so a slot
// must stay small and hold no pointers — the GC then never scans the index,
// however many transactions a client has scored.
func TestSlotLayout(t *testing.T) {
	if size := unsafe.Sizeof(slot{}); size > 16 {
		t.Fatalf("slot is %d bytes, want at most 16", size)
	}
	var hasPointers func(reflect.Type) bool
	hasPointers = func(t reflect.Type) bool {
		switch t.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.Chan, reflect.Func, reflect.Interface, reflect.String:
			return true
		case reflect.Array:
			return t.Len() > 0 && hasPointers(t.Elem())
		case reflect.Struct:
			for i := 0; i < t.NumField(); i++ {
				if hasPointers(t.Field(i).Type) {
					return true
				}
			}
		}
		return false
	}
	if hasPointers(reflect.TypeOf(slot{})) {
		t.Fatal("slot holds a pointer: the GC would scan every cache entry")
	}
}

// TestWarmWalkAllocatesNothing: once every step a walk can take hits the
// cache, a cached accuracy walk allocates nothing — on BenchmarkAccuracyWalk's
// tangle (a chain: lone children only) and on a branching one (memoized
// weight vectors).
func TestWarmWalkAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		name string
		d    *dag.DAG
	}{{"bench", accuracyWalkBenchDAG(xrand.New(1))}, {"branching", cacheTestDAG(t, 500, 9)}} {
		cache := NewEvalCache(scoreByFirstParam, batchScore)
		w := AccuracyWalk{Alpha: 10}
		rng := xrand.New(2)
		walk := func() { w.SelectTip(tc.d, cache, rng) }
		// Warm until a thousand walks in a row score nothing new.
		for quiet := 0; quiet < 1000; quiet++ {
			before := cache.Hits() + cache.Misses()
			if walk(); cache.Hits()+cache.Misses() != before {
				quiet = 0
			}
		}
		before := cache.Hits() + cache.Misses()
		if allocs := testing.AllocsPerRun(500, walk); allocs != 0 {
			t.Errorf("%s: warm walk allocates %v times, want 0", tc.name, allocs)
		}
		if cache.Hits()+cache.Misses() != before {
			t.Fatalf("%s: a measured walk reached a step the warm-up left unscored", tc.name)
		}
	}
}
