package dag

import (
	"maps"
	"slices"
	"testing"

	"github.com/specdag/specdag/internal/xrand"
)

// pendingTxs draws the parents of n publications made after d: each approves
// two transactions, mostly d's tips or earlier publications, otherwise any
// live one.
func pendingTxs(rng *xrand.RNG, d *DAG, n int) [][]ID {
	tips := d.Tips()
	out := make([][]ID, n)
	for i := range out {
		pick := func() ID {
			switch {
			case i > 0 && rng.Bool(0.4):
				return ID(d.Size() + rng.Intn(i))
			case rng.Bool(0.8):
				return tips[rng.Intn(len(tips))]
			}
			return ID(d.LiveFloor()) + ID(rng.Intn(d.Size()-int(d.LiveFloor())))
		}
		out[i] = []ID{pick(), pick()}
	}
	return out
}

// assertOverlayReadsLike holds every tipselect.Graph read of o to want's.
func assertOverlayReadsLike(t *testing.T, want *DAG, o *Overlay, what string) {
	t.Helper()
	if o.Genesis().ID != 0 || !o.Genesis().IsGenesis() {
		t.Fatalf("%s: genesis differs", what)
	}
	for id := ID(0); int(id) < want.Size(); id++ {
		if !slices.Equal(want.Children(id), o.Children(id)) {
			t.Fatalf("%s: Children(%d) = %v, want %v", what, id, o.Children(id), want.Children(id))
		}
		w, g := want.MustGet(id), o.MustGet(id)
		if w.ID != g.ID || w.Issuer != g.Issuer || w.Round != g.Round || !slices.Equal(w.Parents, g.Parents) {
			t.Fatalf("%s: MustGet(%d) = %+v, want %+v", what, id, g, w)
		}
	}
	if !slices.Equal(want.Tips(), o.Tips()) {
		t.Fatalf("%s: Tips = %v, want %v", what, o.Tips(), want.Tips())
	}
	if w, g := want.CumulativeWeights(), o.CumulativeWeights(); !maps.Equal(w, g) {
		for id := ID(0); int(id) < want.Size(); id++ {
			if gw, ok := g[id]; gw != w[id] || ok != (w[id] > 0) {
				t.Fatalf("%s: CumulativeWeights[%d] = %d (present %v), want %d", what, id, gw, ok, w[id])
			}
		}
		t.Fatalf("%s: CumulativeWeights has %d entries, want %d", what, len(g), len(w))
	}
	for _, band := range [][2]int{{0, 0}, {0, 3}, {1, 4}, {2, 5}, {3, 9}, {15, 25}, {400, 500}} {
		wr, gr := xrand.New(int64(band[0]*31+band[1])), xrand.New(int64(band[0]*31+band[1]))
		for i := 0; i < 16; i++ {
			if w, g := want.SampleAtDepth(wr, band[0], band[1]).ID, o.SampleAtDepth(gr, band[0], band[1]).ID; w != g {
				t.Fatalf("%s: band %v draw %d = %d, want %d", what, band, i, g, w)
			}
		}
	}
}

// TestOverlayMatchesAdds: an overlay of k pending publications, some of them
// approving earlier ones, reads exactly like a clone of its base into which
// they were really added — for every prefix k of 0–12 publications, on
// random tangles and on compacted ones with orphaned tips.
func TestOverlayMatchesAdds(t *testing.T) {
	type fixture struct {
		name  string
		build func() *DAG
	}
	var fixtures []fixture
	for seed := int64(1); seed <= 6; seed++ {
		fixtures = append(fixtures, fixture{"random", func() *DAG { return buildRandom(xrand.New(seed), 20+int(seed)*9) }})
	}
	fixtures = append(fixtures,
		fixture{"compacted", func() *DAG { d, _ := bandedTangle(t, 7, 60, 8, 50, 55); return d }},
		fixture{"compacted", func() *DAG { d, _ := benchTangle(t); return d }},
	)
	var o Overlay // reused across fixtures, as the engine reuses one per goroutine
	for i, f := range fixtures {
		base := f.build()
		if f.name == "compacted" && base.LiveFloor() == 0 {
			t.Fatalf("fixture #%d froze nothing; the live-suffix weights go untested", i)
		}
		rng := xrand.New(int64(100 + i))
		pending := pendingTxs(rng, base, rng.Intn(13))
		for k := 0; k <= len(pending); k++ {
			clone := f.build()
			o.Reset(base)
			for j, parents := range pending[:k] {
				params, meta := []float64{float64(j)}, Meta{TestAcc: float64(j) / 16}
				want, err := clone.Add(j%5, 1000+j, parents, params, meta)
				if err != nil {
					t.Fatal(err)
				}
				got, err := o.Add(j%5, 1000+j, parents, params, meta)
				if err != nil {
					t.Fatal(err)
				}
				if got.ID != want.ID {
					t.Fatalf("%s #%d: added transaction got ID %d, a real Add gives %d", f.name, i, got.ID, want.ID)
				}
			}
			if base.Size() != clone.Size()-k {
				t.Fatal("the overlay wrote its base")
			}
			assertOverlayReadsLike(t, clone, &o, f.name)
		}
	}
}

// TestOverlayAddRejects: an added transaction approves one or two existing
// transactions.
func TestOverlayAddRejects(t *testing.T) {
	d := buildRandom(xrand.New(1), 10)
	var o Overlay
	o.Reset(d)
	tx, err := o.Add(1, 0, []ID{3, 4}, nil, Meta{})
	if err != nil {
		t.Fatal(err)
	}
	for _, parents := range [][]ID{{tx.ID + 1}, {2, tx.ID + 1}, {-1}, {}, {1, 2, 3}} {
		if _, err := o.Add(1, 0, parents, nil, Meta{}); err == nil {
			t.Errorf("Add approving %v succeeded", parents)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustGet past the added transactions must panic")
		}
	}()
	o.MustGet(tx.ID + 1)
}
