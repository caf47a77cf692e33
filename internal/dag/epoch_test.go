package dag

// Unit tests for epoch-based compaction: freezing semantics (guard blocking,
// empty epochs, parameter release), spill roundtrips, the live-suffix
// cumulative-weight sweep, the confirmed per-epoch weights, and the
// checkpoint restore path.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/specdag/specdag/internal/xrand"
)

// buildTangle grows a tangle under the uniform-broadcast regime compaction
// requires: every transaction approves two current tips, and Round advances
// by one every txPerRound transactions (monotone in ID). Params are small
// distinct vectors so release and reload are observable.
func buildTangle(rng *xrand.RNG, n, txPerRound int) *DAG {
	d := New([]float64{0, 0})
	for i := 0; i < n; i++ {
		tips := d.Tips()
		p1 := tips[rng.Intn(len(tips))]
		p2 := tips[rng.Intn(len(tips))]
		round := i / txPerRound
		params := []float64{float64(i + 1), float64(2 * (i + 1))}
		if _, err := d.Add(i%7, round, []ID{p1, p2}, params, Meta{TestAcc: float64(i%10) / 10}); err != nil {
			panic(err)
		}
	}
	return d
}

// bruteWeights computes cumulative weights (1 + transitive approvers) of
// every transaction by per-node reverse DFS — the reference the sweeps must
// match.
func bruteWeights(d *DAG) map[ID]int {
	out := make(map[ID]int, d.Size())
	for _, tx := range d.All() {
		seen := map[ID]bool{}
		stack := []ID{tx.ID}
		for len(stack) > 0 {
			id := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, c := range d.Children(id) {
				if !seen[c] {
					seen[c] = true
					stack = append(stack, c)
				}
			}
		}
		out[tx.ID] = 1 + len(seen)
	}
	return out
}

func TestCompactionValidate(t *testing.T) {
	cases := []struct {
		name    string
		c       Compaction
		wantErr bool
	}{
		{"disabled zero value", Compaction{}, false},
		{"valid", Compaction{Width: 10, Live: 2, GuardDepth: 5}, false},
		{"no live epochs", Compaction{Width: 10}, true},
		{"negative guard", Compaction{Width: 10, Live: 1, GuardDepth: -1}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.c.Validate(); (err != nil) != tc.wantErr {
				t.Fatalf("Validate(%+v) = %v, wantErr %v", tc.c, err, tc.wantErr)
			}
		})
	}
}

func TestCompactToFreezesAndReleases(t *testing.T) {
	d := buildTangle(xrand.New(1), 200, 5) // rounds 0..39
	comp := Compaction{Width: 4, Live: 2, GuardDepth: 3}
	if err := d.SetCompaction(comp); err != nil {
		t.Fatal(err)
	}
	floor, err := d.CompactTo(39)
	if err != nil {
		t.Fatal(err)
	}
	if floor == 0 {
		t.Fatal("nothing froze on a 40-round tangle with 4-round epochs")
	}
	if got := d.LiveFloor(); got != floor {
		t.Fatalf("LiveFloor() = %d, CompactTo returned %d", got, floor)
	}
	epochs := d.FrozenEpochs()
	if len(epochs) == 0 {
		t.Fatal("no frozen epoch summaries")
	}
	// Summaries tile [0, floor) contiguously and stay below the live window.
	next := ID(0)
	for i, e := range epochs {
		if e.Epoch != i {
			t.Fatalf("summary %d has epoch %d", i, e.Epoch)
		}
		if e.FirstID != next {
			t.Fatalf("epoch %d starts at %d, want %d", e.Epoch, e.FirstID, next)
		}
		next = e.LastID + 1
		if e.MaxRound >= (39/comp.Width-comp.Live+1)*comp.Width {
			t.Fatalf("epoch %d contains round %d inside the live window", e.Epoch, e.MaxRound)
		}
	}
	if next != floor {
		t.Fatalf("summaries cover [0, %d), floor is %d", next, floor)
	}
	// Frozen params are released (except genesis); live params are intact.
	for _, tx := range d.All() {
		frozen := tx.ID < floor && tx.ID != 0
		if frozen && tx.Params != nil {
			t.Fatalf("frozen tx %d still holds params", tx.ID)
		}
		if !frozen && len(tx.Params) == 0 {
			t.Fatalf("live tx %d lost its params", tx.ID)
		}
	}
	// Idempotent: a second call at the same round does nothing.
	again, err := d.CompactTo(39)
	if err != nil || again != floor {
		t.Fatalf("second CompactTo moved the floor: %d -> %d (err %v)", floor, again, err)
	}
}

func TestCompactToGuardBlocksOnOrphanTip(t *testing.T) {
	d := New([]float64{1})
	// An early transaction that stays a tip forever: every later transaction
	// approves only the newest tip, orphaning it.
	orphan, _ := d.Add(0, 0, []ID{0}, []float64{2}, Meta{})
	last := orphan.ID
	first, _ := d.Add(1, 0, []ID{0}, []float64{3}, Meta{})
	last = first.ID
	for i := 0; i < 100; i++ {
		tx, err := d.Add(i%5, 1+i/2, []ID{last}, []float64{float64(i)}, Meta{})
		if err != nil {
			t.Fatal(err)
		}
		last = tx.ID
	}
	if err := d.SetCompaction(Compaction{Width: 5, Live: 1, GuardDepth: 2}); err != nil {
		t.Fatal(err)
	}
	// The orphan is a round-0 tip: the guard (min round within GuardDepth of
	// the tips) is 0, so no epoch may freeze.
	floor, err := d.CompactTo(51)
	if err != nil {
		t.Fatal(err)
	}
	if floor != 0 {
		t.Fatalf("froze up to %d despite a round-0 orphan tip", floor)
	}
	if len(d.FrozenEpochs()) != 0 {
		t.Fatalf("recorded %d frozen epochs despite the guard", len(d.FrozenEpochs()))
	}
}

func TestCompactToRecordsEmptyEpochs(t *testing.T) {
	d := New([]float64{1})
	last := ID(0)
	// Rounds 0..2, then a jump to rounds 40..49: epochs 1-3 (width 10) are
	// empty but must still be recorded so the summary list stays contiguous.
	for i := 0; i < 6; i++ {
		tx, _ := d.Add(i, i/2, []ID{last}, []float64{float64(i)}, Meta{})
		last = tx.ID
	}
	for i := 0; i < 20; i++ {
		tx, _ := d.Add(i, 40+i/2, []ID{last}, []float64{float64(i)}, Meta{})
		last = tx.ID
	}
	if err := d.SetCompaction(Compaction{Width: 10, Live: 1, GuardDepth: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.CompactTo(49); err != nil {
		t.Fatal(err)
	}
	epochs := d.FrozenEpochs()
	if len(epochs) != 4 {
		t.Fatalf("got %d frozen epochs, want 4 (epoch 0 full, 1-3 empty)", len(epochs))
	}
	for _, e := range epochs[1:] {
		if e.Txs != 0 || e.LastID != e.FirstID-1 {
			t.Fatalf("epoch %d should be empty: %+v", e.Epoch, e)
		}
	}
	if epochs[0].Txs != 7 { // genesis + 6 round-0..2 transactions
		t.Fatalf("epoch 0 has %d txs, want 7", epochs[0].Txs)
	}
}

func TestSpillRoundtripAndParamsOf(t *testing.T) {
	dir := t.TempDir()
	rng := xrand.New(2)
	d := buildTangle(rng, 150, 5)
	// Record every param vector before freezing releases them.
	want := make(map[ID][]float64, d.Size())
	for _, tx := range d.All() {
		want[tx.ID] = append([]float64(nil), tx.Params...)
	}
	if err := d.SetCompaction(Compaction{Width: 3, Live: 2, GuardDepth: 3, SpillDir: dir}); err != nil {
		t.Fatal(err)
	}
	floor, err := d.CompactTo(29)
	if err != nil {
		t.Fatal(err)
	}
	if floor == 0 {
		t.Fatal("nothing froze")
	}
	// Every transaction's params — live or reloaded from spill — match the
	// pre-freeze originals.
	for id := ID(0); int(id) < d.Size(); id++ {
		got, err := d.ParamsOf(id)
		if err != nil {
			t.Fatalf("ParamsOf(%d): %v", id, err)
		}
		w := want[id]
		if len(got) != len(w) {
			t.Fatalf("ParamsOf(%d): %d params, want %d", id, len(got), len(w))
		}
		for i := range w {
			if got[i] != w[i] {
				t.Fatalf("ParamsOf(%d)[%d] = %v, want %v", id, i, got[i], w[i])
			}
		}
	}
	// The run leaves one file in its spill directory, the log, holding
	// exactly the bytes its epochs recorded.
	var total int64
	for _, e := range d.FrozenEpochs() {
		if e.Txs > 0 && e.SpillFile != spillLog {
			t.Fatalf("epoch %d froze %d txs into %q, want the spill log", e.Epoch, e.Txs, e.SpillFile)
		}
		total += e.SpillBytes
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != spillLog {
		t.Fatalf("spill directory holds %v, want only %s", entries, spillLog)
	}
	if fi, err := entries[0].Info(); err != nil || fi.Size() != total {
		t.Fatalf("spill log is %v bytes (%v), the epochs record %d", fi.Size(), err, total)
	}
}

// TestParamsOfFailsOnDamagedLog: a spill log that is missing, cut short or
// zero-filled where an epoch starts gives an error that names the epoch,
// never a vector.
func TestParamsOfFailsOnDamagedLog(t *testing.T) {
	cases := []struct {
		name  string
		epoch int
		id    func(EpochSummary) ID
		hurt  func(path string, off, n int64) error
	}{
		{"missing", 1, func(e EpochSummary) ID { return e.FirstID }, func(path string, _, _ int64) error {
			return os.Remove(path)
		}},
		{"truncated inside the epoch", 1, func(e EpochSummary) ID { return e.LastID }, func(path string, off, n int64) error {
			return os.Truncate(path, off+n/2)
		}},
		{"zero-filled at the epoch", 1, func(e EpochSummary) ID { return e.FirstID }, func(path string, off, n int64) error {
			return zeroFill(path, off, n)
		}},
		{"zero-filled at genesis' epoch", 0, func(EpochSummary) ID { return 1 }, func(path string, off, n int64) error {
			return zeroFill(path, off, n)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			d := goldenSpill(t, dir)
			epochs := d.FrozenEpochs()
			e := epochs[tc.epoch]
			if err := tc.hurt(filepath.Join(dir, spillLog), spillOffset(epochs, tc.epoch), e.SpillBytes); err != nil {
				t.Fatal(err)
			}
			got, err := d.ParamsOf(tc.id(e))
			if want := fmt.Sprintf("epoch %d:", e.Epoch); err == nil || !strings.Contains(err.Error(), want) || got != nil {
				t.Fatalf("ParamsOf(%d) = %v, %v; want an error naming %q", tc.id(e), got, err, want)
			}
		})
	}
}

func zeroFill(path string, off, n int64) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	_, err = f.WriteAt(make([]byte, n), off)
	return errors.Join(err, f.Close())
}

// TestParamsOfRejectsAnotherRunsLog: two tangles whose epochs cover the same
// ID ranges freeze into one directory, the second over the first's bytes.
// The first tangle's reload must then fail: the records are not its own.
func TestParamsOfRejectsAnotherRunsLog(t *testing.T) {
	dir := t.TempDir()
	var tangles [2]*DAG
	for k := range tangles {
		d := New([]float64{0, 0})
		for i := range 40 {
			tips := d.Tips()
			params := []float64{float64((i + 1) * (1 + 99*k)), 0}
			if _, err := d.Add(i%5+k, i/4, []ID{tips[0], tips[len(tips)-1]}, params, Meta{}); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.SetCompaction(Compaction{Width: 2, Live: 1, GuardDepth: 2, SpillDir: dir}); err != nil {
			t.Fatal(err)
		}
		if _, err := d.CompactTo(9); err != nil {
			t.Fatal(err)
		}
		tangles[k] = d
	}
	a, b := tangles[0], tangles[1]
	ea, eb := a.FrozenEpochs(), b.FrozenEpochs()
	if len(ea) == 0 || ea[0].LastID < 1 || ea[0].LastID != eb[0].LastID || ea[0].SpillBytes != eb[0].SpillBytes {
		t.Fatalf("epoch 0 of a (%+v) and of b (%+v) do not line up", ea[0], eb[0])
	}
	if got, err := b.ParamsOf(1); err != nil || got[0] != 100 {
		t.Fatalf("b.ParamsOf(1) = %v, %v; want b's own vector", got, err)
	}
	if got, err := a.ParamsOf(1); err == nil || !strings.Contains(err.Error(), "epoch 0:") {
		t.Fatalf("a.ParamsOf(1) = %v, %v; want an error naming epoch 0, not b's vector", got, err)
	}
}

func TestParamsOfWithoutSpillErrors(t *testing.T) {
	d := buildTangle(xrand.New(3), 100, 5)
	if err := d.SetCompaction(Compaction{Width: 3, Live: 1, GuardDepth: 3}); err != nil {
		t.Fatal(err)
	}
	floor, err := d.CompactTo(19)
	if err != nil {
		t.Fatal(err)
	}
	if floor < 2 {
		t.Fatal("need at least one frozen non-genesis transaction")
	}
	if _, err := d.ParamsOf(1); err == nil {
		t.Fatal("ParamsOf on a spill-less frozen transaction should fail")
	}
	if _, err := d.ParamsOf(0); err != nil {
		t.Fatalf("genesis params must survive compaction: %v", err)
	}
}

func TestLiveSuffixWeightsExact(t *testing.T) {
	d := buildTangle(xrand.New(4), 180, 6) // rounds 0..29
	full := bruteWeights(d)
	if err := d.SetCompaction(Compaction{Width: 3, Live: 2, GuardDepth: 3}); err != nil {
		t.Fatal(err)
	}
	floor, err := d.CompactTo(29)
	if err != nil {
		t.Fatal(err)
	}
	if floor == 0 {
		t.Fatal("nothing froze")
	}
	got := d.CumulativeWeights()
	if len(got) != d.Size()-int(floor) {
		t.Fatalf("suffix sweep returned %d weights, want %d live", len(got), d.Size()-int(floor))
	}
	// Approvers always carry larger IDs, so a live transaction's weight over
	// the suffix alone equals its weight over the full DAG.
	for id, w := range got {
		if id < floor {
			t.Fatalf("suffix sweep returned frozen id %d", id)
		}
		if w != full[id] {
			t.Fatalf("live tx %d: suffix weight %d, full weight %d", id, w, full[id])
		}
	}
}

func TestConfirmedEpochWeightsMatchBruteForce(t *testing.T) {
	d := buildTangle(xrand.New(5), 120, 4) // rounds 0..29
	full := bruteWeights(d)
	if err := d.SetCompaction(Compaction{Width: 5, Live: 1, GuardDepth: 3}); err != nil {
		t.Fatal(err)
	}
	floor, err := d.CompactTo(29)
	if err != nil {
		t.Fatal(err)
	}
	if floor == 0 {
		t.Fatal("nothing froze")
	}
	// A frozen transaction's weight restricted to its own epoch's ID range
	// is its confirmed weight. Recompute per epoch by counting, for each tx,
	// its in-range approvers from the full reachability.
	for _, e := range d.FrozenEpochs() {
		if e.Txs == 0 {
			continue
		}
		sum, max := 0, 0
		for id := e.FirstID; id <= e.LastID; id++ {
			seen := map[ID]bool{}
			stack := []ID{id}
			w := 1
			for len(stack) > 0 {
				cur := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, c := range d.Children(cur) {
					if c <= e.LastID && !seen[c] {
						seen[c] = true
						w++
						stack = append(stack, c)
					}
				}
			}
			sum += w
			if w > max {
				max = w
			}
		}
		if e.WeightSum != sum || e.WeightMax != max {
			t.Fatalf("epoch %d: summary weights (%d, %d), brute force (%d, %d)", e.Epoch, e.WeightSum, e.WeightMax, sum, max)
		}
		_ = full // the full weights sanity-check the builder produced a connected tangle
	}
}

func TestRestoreCompactionRoundtrip(t *testing.T) {
	dir := t.TempDir()
	d := buildTangle(xrand.New(6), 150, 5)
	comp := Compaction{Width: 4, Live: 2, GuardDepth: 3, SpillDir: dir}
	if err := d.SetCompaction(comp); err != nil {
		t.Fatal(err)
	}
	floor, err := d.CompactTo(29)
	if err != nil {
		t.Fatal(err)
	}
	if floor == 0 {
		t.Fatal("nothing froze")
	}
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadDAG(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreCompaction(comp, d.FrozenEpochs()); err != nil {
		t.Fatal(err)
	}
	if restored.LiveFloor() != floor {
		t.Fatalf("restored floor %d, want %d", restored.LiveFloor(), floor)
	}
	// Frozen params reload through the restored summaries' spill files.
	for id := ID(1); id < floor; id++ {
		want, err := d.ParamsOf(id)
		if err != nil {
			t.Fatal(err)
		}
		got, err := restored.ParamsOf(id)
		if err != nil {
			t.Fatalf("restored ParamsOf(%d): %v", id, err)
		}
		if len(got) != len(want) {
			t.Fatalf("restored ParamsOf(%d): %d params, want %d", id, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("restored ParamsOf(%d)[%d] differs", id, i)
			}
		}
	}
	// And the restored suffix sweep matches the original's.
	a, b := d.CumulativeWeights(), restored.CumulativeWeights()
	if len(a) != len(b) {
		t.Fatalf("weight map sizes differ: %d vs %d", len(a), len(b))
	}
	for id, w := range a {
		if b[id] != w {
			t.Fatalf("restored weight of %d is %d, want %d", id, b[id], w)
		}
	}
}

func TestRestoreCompactionRejectsBadSummaries(t *testing.T) {
	d := buildTangle(xrand.New(7), 20, 5)
	good := []EpochSummary{{Epoch: 0, FirstID: 0, LastID: 4, Txs: 5}}
	cases := []struct {
		name   string
		comp   Compaction
		epochs []EpochSummary
	}{
		{"epochs without config", Compaction{}, good},
		{"non-contiguous epochs", Compaction{Width: 5, Live: 1},
			[]EpochSummary{{Epoch: 1, FirstID: 0, LastID: 4}}},
		{"gap in id coverage", Compaction{Width: 5, Live: 1},
			[]EpochSummary{{Epoch: 0, FirstID: 0, LastID: 4}, {Epoch: 1, FirstID: 6, LastID: 9}}},
		{"floor beyond dag", Compaction{Width: 5, Live: 1},
			[]EpochSummary{{Epoch: 0, FirstID: 0, LastID: 200}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := d.RestoreCompaction(tc.comp, tc.epochs); err == nil {
				t.Fatal("RestoreCompaction accepted an inconsistent summary set")
			}
		})
	}
	if err := d.RestoreCompaction(Compaction{Width: 5, Live: 1}, good); err != nil {
		t.Fatalf("valid restore rejected: %v", err)
	}
}

func TestSampleAtDepthMatchesDepths(t *testing.T) {
	// SampleAtDepth's bounded BFS must agree with the full Depths map: for a
	// fixed RNG stream, sampling with band [min, max] returns a transaction
	// whose full depth lies in the band (or genesis when the band is empty).
	d := buildTangle(xrand.New(8), 120, 4)
	depths := d.Depths()
	for _, band := range [][2]int{{0, 0}, {1, 3}, {5, 10}, {2, 6}} {
		rng := xrand.New(9)
		for i := 0; i < 50; i++ {
			tx := d.SampleAtDepth(rng, band[0], band[1])
			if tx.IsGenesis() {
				continue // empty-band fallback
			}
			if dep := depths[tx.ID]; dep < band[0] || dep > band[1] {
				t.Fatalf("band [%d,%d]: sampled tx %d at depth %d", band[0], band[1], tx.ID, dep)
			}
		}
	}
}
