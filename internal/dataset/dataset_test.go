package dataset

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/specdag/specdag/internal/xrand"
)

func TestFlatStorageIsContiguous(t *testing.T) {
	d := FromSamples(Sample{X: []float64{1, 2}, Y: 0}, Sample{X: []float64{3, 4}, Y: 1})
	if d.X.Rows != 2 || d.X.Cols != 2 || len(d.X.Data) != 4 {
		t.Fatalf("flat storage has wrong shape: %dx%d over %d values", d.X.Rows, d.X.Cols, len(d.X.Data))
	}
	if &d.Row(1)[0] != &d.X.Data[2] {
		t.Fatal("Row(1) is not a view into the flat backing store")
	}
	s := d.At(1)
	if s.Y != 1 || &s.X[0] != &d.X.Data[2] {
		t.Fatal("At must return a zero-copy sample view")
	}
}

func TestBuilderGrowAndRelabel(t *testing.T) {
	b := NewBuilder(3, 4, 0.5, xrand.New(3))
	var want []Sample
	for i := 0; i < 4; i++ {
		row := b.Grow(7)
		if len(row) != 3 || cap(row) != 3 || row[0] != 0 || row[1] != 0 || row[2] != 0 {
			t.Fatalf("Grow should hand out a zeroed, capacity-capped row, got %v (cap %d)", row, cap(row))
		}
		row[0], row[1] = float64(i), 5
		b.Relabel(i)
		want = append(want, Sample{X: []float64{float64(i), 5, 0}, Y: i})
	}
	// Each sample lands where Split with the same rng would have moved it.
	wantTrain, wantTest := FromSamples(want...).Split(0.5, xrand.New(3))
	train, test := b.Parts()
	for _, p := range []struct{ got, want Dataset }{{train, wantTrain}, {test, wantTest}} {
		if p.got.Len() != p.want.Len() || p.got.X.Rows != p.want.X.Rows {
			t.Fatalf("part has %d samples, want %d", p.got.Len(), p.want.Len())
		}
		for i := 0; i < p.want.Len(); i++ {
			if p.got.Y[i] != p.want.Y[i] || p.got.Row(i)[0] != p.want.Row(i)[0] || p.got.Row(i)[1] != 5 {
				t.Fatalf("row %d: got %v/%d, want %v/%d", i, p.got.Row(i), p.got.Y[i], p.want.Row(i), p.want.Y[i])
			}
		}
	}
	// The parts are adjacent views of one slab; the first must not be able
	// to grow into the second.
	if cap(test.X.Data) != len(test.X.Data) || cap(test.Y) != len(test.Y) {
		t.Fatal("test part is not capacity-capped")
	}
	// Rows are handed out once.
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on Grow past n")
		}
	}()
	b.Grow(3)
}

func TestBuilderPartsPanicsWhenShort(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on Parts before all samples were grown")
		}
	}()
	b := NewBuilder(1, 2, 0.5, xrand.New(1))
	b.Grow(0)
	b.Parts()
}

func TestFromSamplesPanicsOnWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong row width")
		}
	}()
	FromSamples(Sample{X: []float64{1, 2}}, Sample{X: []float64{1}})
}

func TestCloneIsDeep(t *testing.T) {
	d := FromSamples(Sample{X: []float64{1}, Y: 0})
	c := d.Clone()
	c.Row(0)[0] = 99
	c.Y[0] = 5
	if d.Row(0)[0] != 1 || d.Y[0] != 0 {
		t.Fatal("Clone aliases original")
	}
}

func TestGather(t *testing.T) {
	d := FromSamples(
		Sample{X: []float64{0}, Y: 0},
		Sample{X: []float64{1}, Y: 1},
		Sample{X: []float64{2}, Y: 2},
	)
	g := d.Gather([]int{2, 0})
	if g.Len() != 2 || g.Row(0)[0] != 2 || g.Y[1] != 0 {
		t.Fatalf("Gather wrong: %+v", g)
	}
	// Gathered storage is fresh.
	g.Row(0)[0] = 77
	if d.Row(2)[0] != 2 {
		t.Fatal("Gather must copy rows")
	}
}

func makeIota(n int) Dataset {
	samples := make([]Sample, n)
	for i := range samples {
		samples[i] = Sample{X: []float64{float64(i)}, Y: i % 3}
	}
	return FromSamples(samples...)
}

func TestSplitRatios(t *testing.T) {
	rng := xrand.New(1)
	d := makeIota(100)
	train, test := d.Split(0.1, rng)
	if test.Len() != 10 || train.Len() != 90 {
		t.Fatalf("90:10 split got %d:%d", train.Len(), test.Len())
	}
	// No sample lost or duplicated.
	seen := map[float64]bool{}
	for _, part := range []Dataset{train, test} {
		for i := 0; i < part.Len(); i++ {
			v := part.Row(i)[0]
			if seen[v] {
				t.Fatal("duplicate sample after split")
			}
			seen[v] = true
		}
	}
	if len(seen) != 100 {
		t.Fatalf("split lost samples: %d", len(seen))
	}
}

// TestSplitMatchesSampleSliceReference pins the storage refactor's
// order-preservation contract: Split must visit the identical rng.Shuffle
// call and emit the identical sample order as the historical []Sample
// implementation (shuffle the samples, test = first nTest, train = rest).
func TestSplitMatchesSampleSliceReference(t *testing.T) {
	d := makeIota(23)
	train, test := d.Split(0.3, xrand.New(7))

	// Reference: shuffle a sample slice with an identically seeded stream.
	ref := make([]Sample, d.Len())
	for i := range ref {
		ref[i] = Sample{X: []float64{d.Row(i)[0]}, Y: d.Y[i]}
	}
	rng := xrand.New(7)
	rng.Shuffle(len(ref), func(i, j int) { ref[i], ref[j] = ref[j], ref[i] })
	nTest := int(float64(len(ref)) * 0.3)
	refTrain, refTest := ref[nTest:], ref[:nTest]

	if train.Len() != len(refTrain) || test.Len() != len(refTest) {
		t.Fatalf("split sizes diverge from reference: %d/%d vs %d/%d",
			train.Len(), test.Len(), len(refTrain), len(refTest))
	}
	for i := range refTrain {
		if train.Row(i)[0] != refTrain[i].X[0] || train.Y[i] != refTrain[i].Y {
			t.Fatalf("train sample %d diverges from the sample-slice reference", i)
		}
	}
	for i := range refTest {
		if test.Row(i)[0] != refTest[i].X[0] || test.Y[i] != refTest[i].Y {
			t.Fatalf("test sample %d diverges from the sample-slice reference", i)
		}
	}
}

func TestSplitNeverEmptyParts(t *testing.T) {
	rng := xrand.New(2)
	d := FromSamples(Sample{X: []float64{1}, Y: 0}, Sample{X: []float64{2}, Y: 1})
	train, test := d.Split(0.0, rng)
	if test.Len() == 0 || train.Len() == 0 {
		t.Fatalf("both parts should be non-empty for n>=2: %d/%d", train.Len(), test.Len())
	}
	train, test = d.Split(1.0, rng)
	if test.Len() == 0 || train.Len() == 0 {
		t.Fatalf("both parts should be non-empty for n>=2: %d/%d", train.Len(), test.Len())
	}
}

func TestCountLabels(t *testing.T) {
	d := FromSamples(Sample{Y: 0}, Sample{Y: 2}, Sample{Y: 2}, Sample{Y: 7})
	counts := d.CountLabels(3)
	if counts[0] != 1 || counts[1] != 0 || counts[2] != 2 {
		t.Fatalf("CountLabels got %v", counts)
	}
}

func TestFMNISTClusteredStructure(t *testing.T) {
	fed := FMNISTClustered(FMNISTConfig{Clients: 30, Seed: 1})
	if err := fed.Validate(); err != nil {
		t.Fatal(err)
	}
	if fed.NumClusters != 3 || fed.NumClasses != 10 {
		t.Fatalf("unexpected shape: %d clusters, %d classes", fed.NumClusters, fed.NumClasses)
	}
	perCluster := fed.ClientsPerCluster()
	for ci, n := range perCluster {
		if n != 10 {
			t.Fatalf("cluster %d has %d clients, want 10", ci, n)
		}
	}
	// Every client's labels must stay inside its cluster's class set.
	clusterClasses := map[int]map[int]bool{
		0: {0: true, 1: true, 2: true, 3: true},
		1: {4: true, 5: true, 6: true},
		2: {7: true, 8: true, 9: true},
	}
	for _, c := range fed.Clients {
		for _, part := range []Dataset{c.Train, c.Test} {
			for _, y := range part.Y {
				if !clusterClasses[c.Cluster][y] {
					t.Fatalf("client %d (cluster %d) holds foreign class %d", c.ID, c.Cluster, y)
				}
			}
		}
	}
}

func TestFMNISTRelaxedHasForeignSamples(t *testing.T) {
	fed := FMNISTClustered(FMNISTConfig{Clients: 9, RelaxedMin: 0.15, RelaxedMax: 0.20, Seed: 2})
	clusterClasses := [][]int{{0, 1, 2, 3}, {4, 5, 6}, {7, 8, 9}}
	for _, c := range fed.Clients {
		own := map[int]bool{}
		for _, cl := range clusterClasses[c.Cluster] {
			own[cl] = true
		}
		foreign := 0
		total := 0
		for _, part := range []Dataset{c.Train, c.Test} {
			for _, y := range part.Y {
				if !own[y] {
					foreign++
				}
				total++
			}
		}
		frac := float64(foreign) / float64(total)
		if frac < 0.05 || frac > 0.35 {
			t.Fatalf("client %d foreign fraction %.2f outside plausible [0.05,0.35] band", c.ID, frac)
		}
	}
}

func TestFMNISTByWriter(t *testing.T) {
	fed := FMNISTClustered(FMNISTConfig{Clients: 10, ByWriter: true, Seed: 3})
	if fed.NumClusters != 1 {
		t.Fatalf("by-writer federation should have 1 cluster, got %d", fed.NumClusters)
	}
	// Each client should hold (almost) all classes.
	for _, c := range fed.Clients {
		counts := c.Train.CountLabels(10)
		nonzero := 0
		for _, n := range counts {
			if n > 0 {
				nonzero++
			}
		}
		if nonzero < 8 {
			t.Fatalf("by-writer client %d holds only %d classes", c.ID, nonzero)
		}
	}
}

func TestPoetsStructure(t *testing.T) {
	fed := Poets(PoetsConfig{ClientsPerLanguage: 4, CharsPerClient: 200, Seed: 4})
	if err := fed.Validate(); err != nil {
		t.Fatal(err)
	}
	if fed.NumClusters != 2 {
		t.Fatalf("Poets should have 2 clusters, got %d", fed.NumClusters)
	}
	if len(fed.Clients) != 8 {
		t.Fatalf("want 8 clients, got %d", len(fed.Clients))
	}
	if fed.InputDim != 3*27 {
		t.Fatalf("input dim %d, want %d", fed.InputDim, 3*27)
	}
	// One-hot structure: every window position has exactly one hot unit.
	x := fed.Clients[0].Train.Row(0)
	for w := 0; w < 3; w++ {
		sum := 0.0
		for j := 0; j < 27; j++ {
			sum += x[w*27+j]
		}
		if sum != 1 {
			t.Fatalf("window %d is not one-hot (sum %v)", w, sum)
		}
	}
}

func TestPoetsLanguagesDiffer(t *testing.T) {
	fed := Poets(PoetsConfig{ClientsPerLanguage: 1, CharsPerClient: 2000, Seed: 5})
	// Bigram distributions of the two languages must differ substantially:
	// count successor matches between the two clients' label streams.
	counts := make([][]float64, 2)
	for li, c := range fed.Clients {
		hist := make([]float64, 27)
		for _, y := range c.Train.Y {
			hist[y]++
		}
		counts[li] = hist
	}
	// Normalized L1 distance between label distributions.
	var dist, total float64
	for j := 0; j < 27; j++ {
		dist += math.Abs(counts[0][j] - counts[1][j])
		total += counts[0][j] + counts[1][j]
	}
	if dist/total < 0.1 {
		t.Fatalf("language label distributions too similar: %v", dist/total)
	}
}

func TestCIFARStructure(t *testing.T) {
	fed := CIFAR100PAM(CIFARConfig{Clients: 20, TrainPerClient: 50, TestPerClient: 10, Seed: 6})
	if err := fed.Validate(); err != nil {
		t.Fatal(err)
	}
	if fed.NumClasses != 100 || fed.NumClusters != 20 {
		t.Fatalf("unexpected shape: %d classes, %d clusters", fed.NumClasses, fed.NumClusters)
	}
	// PAM with a low root alpha concentrates clients on few superclasses.
	for _, c := range fed.Clients {
		supers := map[int]bool{}
		for _, y := range c.Train.Y {
			supers[y/5] = true
		}
		if len(supers) > 15 {
			t.Fatalf("client %d spread over %d superclasses; root alpha not concentrating", c.ID, len(supers))
		}
	}
}

func TestCIFARClusterIsMajoritySuperclass(t *testing.T) {
	fed := CIFAR100PAM(CIFARConfig{Clients: 10, TrainPerClient: 200, TestPerClient: 20, Seed: 7})
	for _, c := range fed.Clients {
		counts := make([]int, 20)
		for _, part := range []Dataset{c.Train, c.Test} {
			for _, y := range part.Y {
				counts[y/5]++
			}
		}
		maxCount := 0
		for _, n := range counts {
			if n > maxCount {
				maxCount = n
			}
		}
		if counts[c.Cluster] != maxCount {
			t.Fatalf("client %d cluster %d has count %d, but max is %d", c.ID, c.Cluster, counts[c.Cluster], maxCount)
		}
	}
}

func TestFedProxSyntheticStructure(t *testing.T) {
	fed := FedProxSynthetic(FedProxConfig{Clients: 10, Seed: 8})
	if err := fed.Validate(); err != nil {
		t.Fatal(err)
	}
	if fed.InputDim != 60 || fed.NumClasses != 10 || fed.NumClusters != 1 {
		t.Fatalf("unexpected shape: dim %d, classes %d, clusters %d", fed.InputDim, fed.NumClasses, fed.NumClusters)
	}
	// Sample counts include the +50 floor and respect the cap.
	for _, c := range fed.Clients {
		n := c.Train.Len() + c.Test.Len()
		if n < 50 || n > 600 {
			t.Fatalf("client %d has %d samples, want [50, 600]", c.ID, n)
		}
	}
}

func TestFedProxHeterogeneity(t *testing.T) {
	// With beta > 0, different clients' feature means must differ.
	fed := FedProxSynthetic(FedProxConfig{Clients: 5, Seed: 9})
	means := make([]float64, len(fed.Clients))
	for i, c := range fed.Clients {
		sum := 0.0
		for j := 0; j < c.Train.Len(); j++ {
			sum += c.Train.Row(j)[0]
		}
		means[i] = sum / float64(c.Train.Len())
	}
	allSame := true
	for i := 1; i < len(means); i++ {
		if math.Abs(means[i]-means[0]) > 0.3 {
			allSame = false
		}
	}
	if allSame {
		t.Fatal("FedProx synthetic clients look identically distributed; beta has no effect")
	}
}

func TestBasePureness(t *testing.T) {
	tests := []struct {
		clusters int
		want     float64
	}{{3, 1.0 / 3}, {2, 0.5}, {20, 0.05}}
	for _, tt := range tests {
		f := &Federation{NumClusters: tt.clusters}
		if got := f.BasePureness(); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("BasePureness(%d) = %v, want %v", tt.clusters, got, tt.want)
		}
	}
	if (&Federation{}).BasePureness() != 0 {
		t.Error("BasePureness with zero clusters should be 0")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	fed := FMNISTClustered(FMNISTConfig{Clients: 3, Seed: 10})
	fed.Clients[0].Train.Y[0] = 99
	if err := fed.Validate(); err == nil {
		t.Fatal("Validate should reject out-of-range labels")
	}

	fed = FMNISTClustered(FMNISTConfig{Clients: 3, Seed: 10})
	fed.Clients[0].Cluster = -1
	if err := fed.Validate(); err == nil {
		t.Fatal("Validate should reject out-of-range clusters")
	}

	fed = FMNISTClustered(FMNISTConfig{Clients: 3, Seed: 10})
	fed.Clients[0].Test = Dataset{}
	if err := fed.Validate(); err == nil {
		t.Fatal("Validate should reject empty test sets")
	}

	fed = FMNISTClustered(FMNISTConfig{Clients: 3, Seed: 10})
	fed.Clients[0].Train.Y = fed.Clients[0].Train.Y[:3] // rows/labels mismatch
	if err := fed.Validate(); err == nil {
		t.Fatal("Validate should reject inconsistent flat storage")
	}

	if err := (&Federation{}).Validate(); err == nil {
		t.Fatal("Validate should reject empty federations")
	}
}

func TestClusterOf(t *testing.T) {
	fed := FMNISTClustered(FMNISTConfig{Clients: 6, Seed: 11})
	m := fed.ClusterOf()
	for _, c := range fed.Clients {
		if m[c.ID] != c.Cluster {
			t.Fatal("ClusterOf mismatch")
		}
	}
}

func TestSplitPreservesAllSamplesQuick(t *testing.T) {
	rng := xrand.New(12)
	f := func(n uint8, frac float64) bool {
		if math.IsNaN(frac) {
			return true
		}
		frac = math.Mod(math.Abs(frac), 1)
		d := makeIota(int(n))
		train, test := d.Split(frac, rng)
		return train.Len()+test.Len() == int(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
