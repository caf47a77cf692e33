package dag

import (
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"github.com/specdag/specdag/internal/xrand"
)

func TestNewHasGenesisTip(t *testing.T) {
	d := New([]float64{1, 2})
	if d.Size() != 1 {
		t.Fatalf("new DAG size %d, want 1", d.Size())
	}
	g := d.Genesis()
	if !g.IsGenesis() || g.ID != 0 {
		t.Fatal("genesis malformed")
	}
	tips := d.Tips()
	if len(tips) != 1 || tips[0] != 0 {
		t.Fatalf("tips = %v, want [0]", tips)
	}
}

func TestAddValidation(t *testing.T) {
	d := New(nil)
	if _, err := d.Add(0, 0, nil, nil, Meta{}); err == nil {
		t.Error("no parents should fail")
	}
	if _, err := d.Add(0, 0, []ID{0, 0, 0}, nil, Meta{}); err == nil {
		t.Error("three parents should fail")
	}
	if _, err := d.Add(0, 0, []ID{99}, nil, Meta{}); err == nil {
		t.Error("unknown parent should fail")
	}
	if _, err := d.Add(0, 0, []ID{-1, 0}, nil, Meta{}); err == nil {
		t.Error("negative parent should fail")
	}
	if _, err := d.Add(0, 0, []ID{0, 0}, nil, Meta{}); err != nil {
		t.Errorf("double-approving genesis should be legal: %v", err)
	}
}

func TestTipsTracking(t *testing.T) {
	d := New(nil)
	a, _ := d.Add(1, 0, []ID{0, 0}, nil, Meta{})
	b, _ := d.Add(2, 0, []ID{0, 0}, nil, Meta{})
	// Genesis approved twice -> no longer a tip; a and b are tips.
	tips := d.Tips()
	if len(tips) != 2 || tips[0] != a.ID || tips[1] != b.ID {
		t.Fatalf("tips = %v, want [%d %d]", tips, a.ID, b.ID)
	}
	c, _ := d.Add(3, 1, []ID{a.ID, b.ID}, nil, Meta{})
	tips = d.Tips()
	if len(tips) != 1 || tips[0] != c.ID {
		t.Fatalf("tips = %v, want [%d]", tips, c.ID)
	}
	if !d.IsTip(c.ID) || d.IsTip(a.ID) {
		t.Fatal("IsTip disagrees with Tips")
	}
}

func TestChildrenIndex(t *testing.T) {
	d := New(nil)
	a, _ := d.Add(1, 0, []ID{0, 0}, nil, Meta{})
	b, _ := d.Add(2, 0, []ID{0}, nil, Meta{})
	kids := d.Children(0)
	if len(kids) != 2 || kids[0] != a.ID || kids[1] != b.ID {
		t.Fatalf("children(genesis) = %v", kids)
	}
	if d.NumChildren(0) != 2 || d.NumChildren(a.ID) != 0 {
		t.Fatal("NumChildren wrong")
	}
	// Duplicate parents should produce one child edge, not two.
	countA := 0
	for _, k := range d.Children(0) {
		if k == a.ID {
			countA++
		}
	}
	if countA != 1 {
		t.Fatalf("duplicate parent created %d child edges", countA)
	}
}

func TestGet(t *testing.T) {
	d := New(nil)
	a, _ := d.Add(1, 3, []ID{0}, []float64{7}, Meta{TestAcc: 0.5})
	got, ok := d.Get(a.ID)
	if !ok || got.Issuer != 1 || got.Round != 3 || got.Params[0] != 7 || got.Meta.TestAcc != 0.5 {
		t.Fatal("Get returned wrong transaction")
	}
	if _, ok := d.Get(99); ok {
		t.Fatal("Get(99) should fail")
	}
	if _, ok := d.Get(-1); ok {
		t.Fatal("Get(-1) should fail")
	}
}

// buildRandom constructs a random DAG of n transactions, each approving two
// random existing transactions (biased toward tips like a real tangle).
func buildRandom(rng *xrand.RNG, n int) *DAG {
	d := New(nil)
	for i := 0; i < n; i++ {
		tips := d.Tips()
		pick := func() ID {
			if rng.Bool(0.8) && len(tips) > 0 {
				return tips[rng.Intn(len(tips))]
			}
			return ID(rng.Intn(d.Size()))
		}
		p1, p2 := pick(), pick()
		if _, err := d.Add(rng.Intn(10), i, []ID{p1, p2}, nil, Meta{}); err != nil {
			panic(err)
		}
	}
	return d
}

func TestAcyclicityInvariantQuick(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		rng := xrand.New(seed)
		n := int(size%50) + 2
		d := buildRandom(rng, n)
		// Parents always have smaller IDs than children: acyclic by order.
		for _, tx := range d.All() {
			for _, p := range tx.Parents {
				if p >= tx.ID {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestTipSetExactQuick(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		rng := xrand.New(seed)
		n := int(size%40) + 2
		d := buildRandom(rng, n)
		// A tip is exactly a transaction with no children.
		tipSet := map[ID]bool{}
		for _, id := range d.Tips() {
			tipSet[id] = true
		}
		for _, tx := range d.All() {
			hasKids := d.NumChildren(tx.ID) > 0
			if hasKids == tipSet[tx.ID] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestAncestors(t *testing.T) {
	d := New(nil)
	a, _ := d.Add(1, 0, []ID{0, 0}, nil, Meta{})
	b, _ := d.Add(2, 0, []ID{0, 0}, nil, Meta{})
	c, _ := d.Add(3, 1, []ID{a.ID, b.ID}, nil, Meta{})
	anc := d.Ancestors(c.ID)
	if len(anc) != 3 {
		t.Fatalf("ancestors(c) size %d, want 3", len(anc))
	}
	for _, id := range []ID{0, a.ID, b.ID} {
		if _, ok := anc[id]; !ok {
			t.Fatalf("ancestors(c) missing %d", id)
		}
	}
	if _, ok := anc[c.ID]; ok {
		t.Fatal("ancestors must exclude self")
	}
	if len(d.Ancestors(0)) != 0 {
		t.Fatal("genesis has no ancestors")
	}
}

func TestCumulativeWeightsChain(t *testing.T) {
	// Linear chain: weights count the suffix including self.
	d := New(nil)
	prev := ID(0)
	for i := 0; i < 4; i++ {
		tx, _ := d.Add(1, i, []ID{prev}, nil, Meta{})
		prev = tx.ID
	}
	w := d.CumulativeWeights()
	// genesis approved by 4 txs + self = 5; tip = 1.
	if w[0] != 5 {
		t.Fatalf("genesis weight %d, want 5", w[0])
	}
	if w[prev] != 1 {
		t.Fatalf("tip weight %d, want 1", w[prev])
	}
}

func TestCumulativeWeightsDiamond(t *testing.T) {
	d := New(nil)
	a, _ := d.Add(1, 0, []ID{0, 0}, nil, Meta{})
	b, _ := d.Add(2, 0, []ID{0, 0}, nil, Meta{})
	c, _ := d.Add(3, 1, []ID{a.ID, b.ID}, nil, Meta{})
	w := d.CumulativeWeights()
	// c approves a, b, genesis; each has weight 1(self)+descendants.
	if w[c.ID] != 1 || w[a.ID] != 2 || w[b.ID] != 2 || w[0] != 4 {
		t.Fatalf("diamond weights wrong: %v", w)
	}
}

func TestCumulativeWeightsMonotoneAlongEdges(t *testing.T) {
	rng := xrand.New(7)
	d := buildRandom(rng, 60)
	w := d.CumulativeWeights()
	for _, tx := range d.All() {
		for _, p := range tx.Parents {
			if w[p] <= w[tx.ID]-1 && w[p] < w[tx.ID] {
				continue // parent strictly heavier or equal is fine; check below
			}
			if w[p] < w[tx.ID] {
				t.Fatalf("parent %d weight %d < child %d weight %d", p, w[p], tx.ID, w[tx.ID])
			}
		}
	}
}

func TestDepths(t *testing.T) {
	d := New(nil)
	a, _ := d.Add(1, 0, []ID{0, 0}, nil, Meta{})
	b, _ := d.Add(2, 1, []ID{a.ID, a.ID}, nil, Meta{})
	c, _ := d.Add(3, 2, []ID{b.ID, b.ID}, nil, Meta{})
	depths := d.Depths()
	want := map[ID]int{c.ID: 0, b.ID: 1, a.ID: 2, 0: 3}
	for id, dep := range want {
		if depths[id] != dep {
			t.Fatalf("depth(%d) = %d, want %d", id, depths[id], dep)
		}
	}
}

func TestSampleAtDepth(t *testing.T) {
	rng := xrand.New(9)
	d := New(nil)
	prev := ID(0)
	for i := 0; i < 30; i++ {
		tx, _ := d.Add(1, i, []ID{prev}, nil, Meta{})
		prev = tx.ID
	}
	depths := d.Depths()
	for i := 0; i < 50; i++ {
		tx := d.SampleAtDepth(rng, 15, 25)
		if dep := depths[tx.ID]; dep < 15 || dep > 25 {
			t.Fatalf("sampled depth %d outside [15,25]", dep)
		}
	}
	// Small DAG: no tx at depth 15-25 -> genesis fallback.
	small := New(nil)
	small.Add(1, 0, []ID{0}, nil, Meta{})
	if tx := small.SampleAtDepth(rng, 15, 25); !tx.IsGenesis() {
		t.Fatal("expected genesis fallback for shallow DAG")
	}
}

func TestConcurrentAdds(t *testing.T) {
	d := New(nil)
	var wg sync.WaitGroup
	const workers, perWorker = 8, 25
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := xrand.New(int64(w))
			for i := 0; i < perWorker; i++ {
				tips := d.Tips()
				p := tips[rng.Intn(len(tips))]
				if _, err := d.Add(w, i, []ID{p, p}, nil, Meta{}); err != nil {
					t.Errorf("concurrent add failed: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if d.Size() != workers*perWorker+1 {
		t.Fatalf("size %d, want %d", d.Size(), workers*perWorker+1)
	}
	// Structural invariants hold after concurrency.
	for _, tx := range d.All() {
		for _, p := range tx.Parents {
			if p >= tx.ID {
				t.Fatal("acyclicity violated under concurrency")
			}
		}
	}
}

func TestDOT(t *testing.T) {
	d := New(nil)
	d.Add(1, 0, []ID{0, 0}, nil, Meta{Poisoned: true})
	dot := d.DOT()
	for _, want := range []string{"digraph", "t1 -> t0", "fillcolor=gray", "color=red"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q:\n%s", want, dot)
		}
	}
}

func TestStats(t *testing.T) {
	d := New(nil)
	a, _ := d.Add(1, 0, []ID{0, 0}, nil, Meta{})
	d.Add(2, 1, []ID{a.ID, a.ID}, nil, Meta{})
	s := d.Stats()
	if s.Transactions != 3 || s.Tips != 1 || s.MaxDepth != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func BenchmarkAdd(b *testing.B) {
	d := New(nil)
	rng := xrand.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tips := d.Tips()
		p := tips[rng.Intn(len(tips))]
		if _, err := d.Add(0, i, []ID{p, p}, nil, Meta{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCumulativeWeights1000(b *testing.B) {
	rng := xrand.New(2)
	d := buildRandom(rng, 1000)
	txs := d.snapshot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Measure the sequential sweep itself, not the per-size memo.
		weightMap(0, sweepWeights(txs, 0, ID(len(txs)), nil))
	}
}
