package dag

// Reference-model test. A deliberately naive tangle — parent lists and
// nothing else — is driven by the same seeded random operation sequence as a
// real DAG and two partial-visibility Views of it, and after every operation
// the two must agree on everything the package exports: tips, children,
// depths, cumulative weights, depth-band sampling (same rng seed → same ID),
// parameter reloads and the per-epoch weight summaries compaction records.
// The model recomputes every notion from its definition on every check
// (children by scanning all parent lists, depth by one BFS per transaction,
// weight by counting descendants), so it shares no data structure, index or
// shortcut with the implementation it checks.
//
// What the model does NOT decide is *when* an epoch freezes: the freeze guard
// is a policy, not a graph notion. It takes the frozen ranges the real DAG
// reports and checks what was recorded about them; modelCases additionally
// pins each sequence's final floor and epoch count so a change of policy
// shows up as a diff here.

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/specdag/specdag/internal/xrand"
)

// model is the naive tangle: one parent list per transaction, by ID.
type model struct {
	parents [][]ID
	issuers []int
	rounds  []int
	params  [][]float64
}

func newModel(genesis []float64) *model {
	return &model{parents: [][]ID{nil}, issuers: []int{GenesisIssuer}, rounds: []int{-1}, params: [][]float64{genesis}}
}

func (m *model) add(issuer, round int, parents []ID, params []float64) ID {
	m.parents = append(m.parents, append([]ID(nil), parents...))
	m.issuers = append(m.issuers, issuer)
	m.rounds = append(m.rounds, round)
	m.params = append(m.params, params)
	return ID(len(m.parents) - 1)
}

// children lists, for every transaction, the visible transactions that name
// it as a parent (once, however often they name it), in ID order. vis == nil
// means everything is visible.
func (m *model) children(vis map[ID]bool) [][]ID {
	kids := make([][]ID, len(m.parents))
	for c, ps := range m.parents {
		if vis != nil && !vis[ID(c)] {
			continue
		}
		for j, p := range ps {
			if j > 0 && ps[0] == p {
				continue
			}
			kids[p] = append(kids[p], ID(c))
		}
	}
	return kids
}

func (m *model) ids(vis map[ID]bool) []ID {
	var out []ID
	for i := range m.parents {
		if vis == nil || vis[ID(i)] {
			out = append(out, ID(i))
		}
	}
	return out
}

// tips are the visible transactions nobody visible approves.
func (m *model) tips(vis map[ID]bool) []ID {
	kids := m.children(vis)
	var out []ID
	for _, id := range m.ids(vis) {
		if len(kids[id]) == 0 {
			out = append(out, id)
		}
	}
	return out
}

// depths is the shortest child-edge distance from each visible transaction to
// a tip, by one forward BFS per transaction.
func (m *model) depths(vis map[ID]bool) map[ID]int {
	kids := m.children(vis)
	out := make(map[ID]int)
	for _, id := range m.ids(vis) {
		dist := map[ID]int{id: 0}
		frontier := []ID{id}
		found := -1
		for len(frontier) > 0 && found < 0 {
			var next []ID
			for _, cur := range frontier {
				if len(kids[cur]) == 0 {
					found = dist[cur]
					break
				}
				for _, c := range kids[cur] {
					if _, seen := dist[c]; !seen {
						dist[c] = dist[cur] + 1
						next = append(next, c)
					}
				}
			}
			frontier = next
		}
		out[id] = found
	}
	return out
}

// weights counts, for each visible transaction in [lo, hi], itself plus its
// visible descendants in [lo, hi].
func (m *model) weights(vis map[ID]bool, lo, hi ID) map[ID]int {
	kids := m.children(vis)
	out := make(map[ID]int)
	for _, id := range m.ids(vis) {
		if id < lo || id > hi {
			continue
		}
		seen := map[ID]bool{id: true}
		stack := []ID{id}
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, c := range kids[cur] {
				if c <= hi && !seen[c] {
					seen[c] = true
					stack = append(stack, c)
				}
			}
		}
		out[id] = len(seen)
	}
	return out
}

// sampleModel is §5.3.5's entry draw over a model depth map: uniform over the
// transactions whose depth lies in [min, max], in ID order, genesis when
// there are none.
func sampleModel(rng *xrand.RNG, depths map[ID]int, min, max int) ID {
	var cands []ID
	for id, dep := range depths {
		if dep >= min && dep <= max {
			cands = append(cands, id)
		}
	}
	if len(cands) == 0 {
		return 0
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
	return cands[rng.Intn(len(cands))]
}

// modelRun drives a model and a real DAG (plus two Views with different
// per-issuer dissemination delays) through one operation sequence.
type modelRun struct {
	t     testing.TB
	rng   *xrand.RNG
	m     *model
	d     *DAG
	comp  Compaction
	views []*View
	vis   []map[ID]bool
	delay [][]int // [view][issuer] rounds until a transaction arrives
	round int
	// tipOnly restricts approvals to current tips (the regime compaction's
	// guard is designed for); otherwise a third of the parents are arbitrary.
	tipOnly bool
}

const modelIssuers = 5

func newModelRun(t testing.TB, seed int64, comp Compaction, tipOnly bool) *modelRun {
	genesis := []float64{0.5, -0.5}
	r := &modelRun{t: t, rng: xrand.New(seed), m: newModel(genesis), d: New(genesis), comp: comp, tipOnly: tipOnly}
	if err := r.d.SetCompaction(comp); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 2; v++ {
		r.views = append(r.views, NewView(r.d))
		r.vis = append(r.vis, map[ID]bool{0: true})
		delays := make([]int, modelIssuers)
		for i := range delays {
			delays[i] = r.rng.Intn(3 + 2*v)
		}
		r.delay = append(r.delay, delays)
	}
	return r
}

func (r *modelRun) step(op int) {
	t := r.t
	switch p := r.rng.Intn(100); {
	case p < 60:
		if r.rng.Intn(4) == 0 {
			r.round++
		}
		tips := r.m.tips(nil)
		pick := func() ID {
			if r.tipOnly || r.rng.Intn(3) > 0 {
				return tips[r.rng.Intn(len(tips))]
			}
			return ID(r.rng.Intn(len(r.m.parents)))
		}
		parents := []ID{pick()}
		if r.rng.Intn(5) > 0 {
			parents = append(parents, pick()) // may equal the first
		}
		issuer := r.rng.Intn(modelIssuers)
		params := []float64{float64(op), r.rng.Float64()}
		meta := Meta{TrainAcc: r.rng.Float64(), TestAcc: r.rng.Float64(), Poisoned: r.rng.Intn(10) == 0}
		want := r.m.add(issuer, r.round, parents, params)
		tx, err := r.d.Add(issuer, r.round, parents, params, meta)
		if err != nil {
			t.Fatalf("op %d: Add(%v): %v", op, parents, err)
		}
		if tx.ID != want {
			t.Fatalf("op %d: Add returned id %d, model %d", op, tx.ID, want)
		}
	case p < 78:
		v := r.rng.Intn(len(r.views))
		now, delays := r.round, r.delay[v]
		r.views[v].RevealWhere(func(tx *Transaction) bool { return tx.Round+delays[tx.Issuer] <= now })
		// Model: everything that has arrived and whose parents are visible,
		// in ID order, so a late parent holds its children back.
		for id := 1; id < len(r.m.parents); id++ {
			if r.vis[v][ID(id)] || r.m.rounds[id]+delays[r.m.issuers[id]] > now {
				continue
			}
			ok := true
			for _, p := range r.m.parents[id] {
				ok = ok && r.vis[v][p]
			}
			if ok {
				r.vis[v][ID(id)] = true
			}
		}
	case p < 92:
		// The entry band is memoized per tangle state and freezing releases
		// parameters, never structure: what was drawn before the floor moves
		// is drawn after (check then compares the memo with the model again).
		before := r.d.SampleAtDepth(xrand.New(int64(op)), 1, 3).ID
		floor, err := r.d.CompactTo(r.round)
		if err != nil {
			t.Fatalf("op %d: CompactTo(%d): %v", op, r.round, err)
		}
		if !r.comp.Enabled() && floor != 0 {
			t.Fatalf("op %d: floor %d without compaction", op, floor)
		}
		// The guard's verdict is memoized on the tangle too: asking again
		// freezes nothing more and nothing less.
		epochs := r.d.FrozenEpochs()
		if again, err := r.d.CompactTo(r.round); err != nil || again != floor || !slices.Equal(r.d.FrozenEpochs(), epochs) {
			t.Fatalf("op %d: second CompactTo(%d) = %d, %v with %d epochs; first %d with %d", op, r.round, again, err, len(r.d.FrozenEpochs()), floor, len(epochs))
		}
		if after := r.d.SampleAtDepth(xrand.New(int64(op)), 1, 3).ID; after != before {
			t.Fatalf("op %d: SampleAtDepth(1, 3) = %d before CompactTo, %d after", op, before, after)
		}
	default:
		r.reload(op)
	}
}

// reload replaces the DAG by its WriteTo → ReadDAG (+ RestoreCompaction)
// image, checks the image re-emits the same bytes, and rebuilds the views.
func (r *modelRun) reload(op int) {
	t := r.t
	var buf bytes.Buffer
	n, err := r.d.WriteTo(&buf)
	if err != nil || n != int64(buf.Len()) {
		t.Fatalf("op %d: WriteTo = %d, %v (buffer holds %d)", op, n, err, buf.Len())
	}
	first := append([]byte(nil), buf.Bytes()...)
	back, err := ReadDAG(&buf)
	if err != nil {
		t.Fatalf("op %d: ReadDAG: %v", op, err)
	}
	if err := back.RestoreCompaction(r.comp, r.d.FrozenEpochs()); err != nil {
		t.Fatalf("op %d: RestoreCompaction: %v", op, err)
	}
	var again bytes.Buffer
	if _, err := back.WriteTo(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, again.Bytes()) {
		t.Fatalf("op %d: reloaded DAG re-emits different SDG1 bytes", op)
	}
	r.d = back
	for v := range r.views {
		r.views[v] = NewView(back)
		for _, id := range r.m.ids(r.vis[v]) {
			if err := r.views[v].Reveal(id); err != nil {
				t.Fatalf("op %d: re-revealing %d: %v", op, id, err)
			}
		}
	}
}

// sampleBands are the depth bands every check samples: the tips themselves,
// shallow bands (neighbours share a bound, so a memo keyed on one of them
// alone answers the next from the wrong entry), the paper's 15–25, a band
// that is usually empty and an inverted one that always is.
var sampleBands = [][2]int{{0, 0}, {0, 2}, {1, 3}, {2, 5}, {1, 5}, {15, 25}, {60, 70}, {5, 2}}

// check compares every exported read of the DAG and its views with the model.
func (r *modelRun) check(op int) {
	t := r.t
	m, d := r.m, r.d
	n := len(m.parents)
	if d.Size() != n {
		t.Fatalf("op %d: Size %d, model %d", op, d.Size(), n)
	}
	floor := d.LiveFloor()

	// Structure: tips, children, stored fields.
	tips := m.tips(nil)
	if got := d.Tips(); !slices.Equal(got, tips) {
		t.Fatalf("op %d: Tips %v, model %v", op, got, tips)
	}
	isTip := map[ID]bool{}
	for _, id := range tips {
		isTip[id] = true
	}
	kids := m.children(nil)
	for i := 0; i < n; i++ {
		id := ID(i)
		if d.IsTip(id) != isTip[id] {
			t.Fatalf("op %d: IsTip(%d) = %v, model %v", op, id, d.IsTip(id), isTip[id])
		}
		if got := d.Children(id); !slices.Equal(got, kids[id]) {
			t.Fatalf("op %d: Children(%d) = %v, model %v", op, id, got, kids[id])
		}
		if got := d.NumChildren(id); got != len(kids[id]) {
			t.Fatalf("op %d: NumChildren(%d) = %d, model %d", op, id, got, len(kids[id]))
		}
		tx := d.MustGet(id)
		if tx.ID != id || tx.Issuer != m.issuers[i] || tx.Round != m.rounds[i] || !slices.Equal(tx.Parents, m.parents[i]) {
			t.Fatalf("op %d: tx %d = %+v, model issuer %d round %d parents %v", op, id, tx, m.issuers[i], m.rounds[i], m.parents[i])
		}
	}
	if d.IsTip(ID(n)) || d.IsTip(-1) || d.NumChildren(ID(n)) != 0 {
		t.Fatalf("op %d: out-of-range id reported as tip or parent", op)
	}

	// Depths, weights (live suffix only once something froze), sampling.
	depths := m.depths(nil)
	if got := d.Depths(); !maps.Equal(got, depths) {
		t.Fatalf("op %d: Depths %v, model %v", op, got, depths)
	}
	if got, want := d.CumulativeWeights(), m.weights(nil, floor, ID(n-1)); !maps.Equal(got, want) {
		t.Fatalf("op %d (floor %d): CumulativeWeights %v, model %v", op, floor, got, want)
	}
	sample := func(b int, call string) {
		band, seed := sampleBands[b], int64(op*len(sampleBands)+b)
		got := d.SampleAtDepth(xrand.New(seed), band[0], band[1]).ID
		if want := sampleModel(xrand.New(seed), depths, band[0], band[1]); got != want {
			t.Fatalf("op %d: SampleAtDepth(%v) = %d (%s), model %d", op, band, got, call, want)
		}
	}
	for b := range sampleBands {
		// The previous band holds the memo: a miss, a hit, then the next band
		// and back again.
		sample(b, "memo miss")
		sample(b, "memo hit")
		sample((b+1)%len(sampleBands), "next band")
		sample(b, "back from the next band")
	}

	// The same notions over each partial view.
	for v, view := range r.views {
		vis := r.vis[v]
		if view.NumVisible() != len(vis) {
			t.Fatalf("op %d view %d: %d visible, model %d", op, v, view.NumVisible(), len(vis))
		}
		vkids := m.children(vis)
		for i := 0; i < n; i++ {
			id := ID(i)
			if view.IsVisible(id) != vis[id] {
				t.Fatalf("op %d view %d: IsVisible(%d) = %v, model %v", op, v, id, view.IsVisible(id), vis[id])
			}
			if got := view.Children(id); vis[id] && !slices.Equal(got, vkids[id]) {
				t.Fatalf("op %d view %d: Children(%d) = %v, model %v", op, v, id, got, vkids[id])
			}
		}
		if got, want := view.Tips(), m.tips(vis); !slices.Equal(got, want) {
			t.Fatalf("op %d view %d: Tips %v, model %v", op, v, got, want)
		}
		vdepths := m.depths(vis)
		if got := view.Depths(); !maps.Equal(got, vdepths) {
			t.Fatalf("op %d view %d: Depths %v, model %v", op, v, got, vdepths)
		}
		if got, want := view.CumulativeWeights(), m.weights(vis, 0, ID(n-1)); !maps.Equal(got, want) {
			t.Fatalf("op %d view %d: CumulativeWeights %v, model %v", op, v, got, want)
		}
		for b, band := range sampleBands {
			seed := int64(op*len(sampleBands) + b)
			got := view.SampleAtDepth(xrand.New(seed), band[0], band[1]).ID
			if want := sampleModel(xrand.New(seed), vdepths, band[0], band[1]); got != want {
				t.Fatalf("op %d view %d: SampleAtDepth(%v) = %d, model %d", op, v, band, got, want)
			}
		}
	}

	// What a checkpoint sink reserves for the tangle is what WriteTo streams,
	// frozen (empty) records included.
	var streamed bytes.Buffer
	if _, err := d.WriteTo(&streamed); err != nil {
		t.Fatalf("op %d: WriteTo: %v", op, err)
	}
	if size := d.Capture().Size(); streamed.Len() != size {
		t.Fatalf("op %d: WriteTo wrote %d bytes, the capture's Size is %d", op, streamed.Len(), size)
	}

	r.checkFrozen(op, floor)
}

// checkFrozen checks what compaction recorded and kept of the frozen prefix:
// contiguous epoch ranges, the confirmed weights of each, released parameter
// vectors and their reload from the spill log.
func (r *modelRun) checkFrozen(op int, floor ID) {
	t := r.t
	m, d := r.m, r.d
	next, spilled := ID(0), int64(0)
	for i, e := range d.FrozenEpochs() {
		if e.Epoch != i || e.FirstID != next {
			t.Fatalf("op %d: frozen epoch %d is %+v, want epoch %d from id %d", op, i, e, i, next)
		}
		next = e.LastID + 1
		if e.Txs != int(e.LastID-e.FirstID+1) {
			t.Fatalf("op %d: epoch %d counts %d txs over [%d, %d]", op, e.Epoch, e.Txs, e.FirstID, e.LastID)
		}
		sum, max, edges := 0, 0, 0
		for id, w := range m.weights(nil, e.FirstID, e.LastID) {
			sum += w
			if w > max {
				max = w
			}
			ps := m.parents[id]
			edges += len(ps)
			if len(ps) == 2 && ps[0] == ps[1] {
				edges--
			}
		}
		if e.WeightSum != sum || e.WeightMax != max || e.Edges != edges {
			t.Fatalf("op %d: epoch %d records weights (%d, %d) edges %d, model (%d, %d) edges %d",
				op, e.Epoch, e.WeightSum, e.WeightMax, e.Edges, sum, max, edges)
		}
		if (e.SpillFile != "") != (r.comp.SpillDir != "" && e.Txs > 0) {
			t.Fatalf("op %d: epoch %d spill file %q with spill dir %q", op, e.Epoch, e.SpillFile, r.comp.SpillDir)
		}
		if e.SpillFile != "" && e.SpillFile != spillLog {
			t.Fatalf("op %d: epoch %d spilled to %q, not the spill log", op, e.Epoch, e.SpillFile)
		}
		spilled += e.SpillBytes
	}
	if next != floor {
		t.Fatalf("op %d: frozen epochs end at %d, floor is %d", op, next, floor)
	}
	if spilled > 0 {
		if fi, err := os.Stat(filepath.Join(r.comp.SpillDir, spillLog)); err != nil || fi.Size() != spilled {
			t.Fatalf("op %d: spill log %v (%v), the epochs record %d bytes", op, fi, err, spilled)
		}
	}
	// ParamsOf checks each reloaded record's structure against the tangle's,
	// which check compares with the model.
	for i := range m.parents {
		id := ID(i)
		got, err := d.ParamsOf(id)
		frozen := id != 0 && id < floor
		if frozen && len(d.MustGet(id).Params) != 0 {
			t.Fatalf("op %d: frozen tx %d still holds its params", op, id)
		}
		if frozen && r.comp.SpillDir == "" {
			if err == nil {
				t.Fatalf("op %d: ParamsOf(%d) succeeded for a frozen tx without spill", op, id)
			}
			continue
		}
		if err != nil || !slices.Equal(got, m.params[i]) {
			t.Fatalf("op %d: ParamsOf(%d) = %v, %v; model %v", op, id, got, err, m.params[i])
		}
	}
}

// runModel runs one sequence, checking after every operation, and returns the
// run for end-of-sequence assertions.
func runModel(t testing.TB, seed int64, ops int, comp Compaction, tipOnly bool) *modelRun {
	r := newModelRun(t, seed, comp, tipOnly)
	r.check(-1)
	for op := 0; op < ops; op++ {
		r.step(op)
		r.check(op)
	}
	return r
}

// modelCases pin, besides the per-operation agreement, where each sequence's
// freezing ended up (floor, epochs): values recorded from the implementation
// and expected to move only with a deliberate change of the freeze policy.
var modelCases = []struct {
	name    string
	seed    int64
	ops     int
	comp    Compaction
	spill   bool
	tipOnly bool
	floor   ID
	epochs  int
}{
	{name: "plain", seed: 1, ops: 160},
	{name: "plain tip-only", seed: 2, ops: 160, tipOnly: true},
	{name: "compact", seed: 3, ops: 220, comp: Compaction{Width: 2, Live: 1, GuardDepth: 2}, tipOnly: true, floor: 115, epochs: 12},
	{name: "compact spill", seed: 4, ops: 220, comp: Compaction{Width: 3, Live: 2, GuardDepth: 3}, spill: true, tipOnly: true, floor: 118, epochs: 12},
	{name: "compact dead tips", seed: 5, ops: 260, comp: Compaction{Width: 2, Live: 1, GuardDepth: 4, GuardDepthMin: 2}, spill: true, tipOnly: true, floor: 131, epochs: 15},
	{name: "compact arbitrary parents", seed: 6, ops: 220, comp: Compaction{Width: 1, Live: 1, GuardDepth: 1, GuardDepthMin: 1}, spill: true, floor: 121, epochs: 33},
	{name: "compact wide guard", seed: 7, ops: 200, comp: Compaction{Width: 4, Live: 3, GuardDepth: 30, GuardDepthMin: 10}, tipOnly: true, floor: 77, epochs: 3},
}

func TestDAGModel(t *testing.T) {
	for _, tc := range modelCases {
		t.Run(tc.name, func(t *testing.T) {
			comp := tc.comp
			if tc.spill {
				comp.SpillDir = t.TempDir()
			}
			r := runModel(t, tc.seed, tc.ops, comp, tc.tipOnly)
			floor, epochs := r.d.LiveFloor(), len(r.d.FrozenEpochs())
			t.Logf("%d txs, floor %d, %d frozen epochs", r.d.Size(), floor, epochs)
			if floor != tc.floor || epochs != tc.epochs {
				t.Fatalf("sequence ended at floor %d with %d frozen epochs, recorded %d and %d", floor, epochs, tc.floor, tc.epochs)
			}
		})
	}
}

// FuzzDAGModel lets the fuzzer pick the sequence (seed, length) and the
// compaction shape; the contract is TestDAGModel's per-operation agreement.
func FuzzDAGModel(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(0), uint8(0), uint8(0), uint8(0), false)
	f.Add(int64(2), uint8(90), uint8(2), uint8(1), uint8(2), uint8(0), true)
	f.Add(int64(3), uint8(120), uint8(1), uint8(1), uint8(3), uint8(2), true)
	f.Add(int64(4), uint8(80), uint8(3), uint8(2), uint8(1), uint8(1), false)
	f.Fuzz(func(t *testing.T, seed int64, ops, width, live, guard, guardMin uint8, spill bool) {
		comp := Compaction{Width: int(width % 5)}
		if comp.Enabled() {
			comp.Live = 1 + int(live%3)
			comp.GuardDepth = int(guard % 8)
			comp.GuardDepthMin = int(guardMin) % (comp.GuardDepth + 1)
			if spill {
				comp.SpillDir = t.TempDir()
			}
		}
		runModel(t, seed, int(ops%128), comp, seed%2 == 0)
	})
}

// goldenSDG1 is the SHA-256 of goldenTangle's WriteTo output before anything
// froze, recorded by the commit before the snapshot and the spill came to
// share one record writer.
const goldenSDG1 = "a7b44a7de0d207db7d8628f92fb6e92e070724bacaa2fb83c4da2ecdfec56da3"

func goldenTangle() *DAG { return buildTangle(xrand.New(11), 40, 4) } // rounds 0..9

// goldenSpill freezes goldenTangle through round 9 into a spill log in dir.
func goldenSpill(tb testing.TB, dir string) *DAG {
	d := goldenTangle()
	if err := d.SetCompaction(Compaction{Width: 2, Live: 1, GuardDepth: 2, SpillDir: dir}); err != nil {
		tb.Fatal(err)
	}
	if _, err := d.CompactTo(9); err != nil {
		tb.Fatal(err)
	}
	return d
}

// recordsSize is the encoded size of txs' records with their own vectors.
func recordsSize(txs []*Transaction) int64 {
	c := NewCounter()
	for _, t := range txs {
		c.record(t, &t.Params)
	}
	c.Flush()
	return c.Written()
}

// TestSpillLogIsSnapshotRecords: each frozen epoch's bytes in the spill log
// are the slice of the golden tangle's SDG1 stream, taken before anything
// froze, that holds the epoch's records; the stream itself has not moved
// (goldenSDG1), so the log needs no fixture of its own.
func TestSpillLogIsSnapshotRecords(t *testing.T) {
	ref := goldenTangle()
	var sdg bytes.Buffer
	if _, err := ref.WriteTo(&sdg); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(sdg.Bytes())); got != goldenSDG1 {
		t.Errorf("SDG1 bytes of the golden tangle hash to %s, recorded %s", got, goldenSDG1)
	}
	dir := t.TempDir()
	epochs := goldenSpill(t, dir).FrozenEpochs()
	log, err := os.ReadFile(filepath.Join(dir, spillLog))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(log)) != spillOffset(epochs, len(epochs)) {
		t.Fatalf("spill log holds %d bytes, its %d epochs record %d", len(log), len(epochs), spillOffset(epochs, len(epochs)))
	}
	// Epoch 1 is what the per-epoch spill fixture of earlier builds held:
	// 320 record bytes at offset 366 of the stream.
	if len(epochs) < 2 || epochs[1].SpillBytes != 320 || 8+spillOffset(epochs, 1) != 366 {
		t.Fatalf("golden tangle froze %+v, want epoch 1's 320 bytes at stream offset 366", epochs)
	}
	all := ref.All()
	for i, e := range epochs {
		at := int64(len(Magic)+4) + recordsSize(all[:e.FirstID]) // past the header and the earlier records
		off := spillOffset(epochs, i)
		if !bytes.Equal(log[off:off+e.SpillBytes], sdg.Bytes()[at:at+e.SpillBytes]) {
			t.Errorf("epoch %d: log bytes [%d, %d) differ from stream bytes [%d, %d)", e.Epoch, off, off+e.SpillBytes, at, at+e.SpillBytes)
		}
	}
}

// FuzzReadSpill: hostile bytes written into the golden tangle's spill log at
// any offset make ParamsOf of any frozen transaction an error naming its
// epoch or a vector whose record matched the tangle's structure — the
// original vector when the bytes up to the end of its record are untouched —
// never a panic.
func FuzzReadSpill(f *testing.F) {
	ref, dir := goldenTangle(), f.TempDir()
	d := goldenSpill(f, dir)
	epochs := d.FrozenEpochs()
	log, err := os.ReadFile(filepath.Join(dir, spillLog))
	if err != nil {
		f.Fatal(err)
	}
	e1 := uint16(spillOffset(epochs, 1))
	f.Add([]byte{}, uint16(0), uint16(0))                       // the log as written
	f.Add(make([]byte, 64), e1, uint16(epochs[1].FirstID-1))    // zeros where epoch 1 starts
	f.Add(make([]byte, len(log)), uint16(0), uint16(0))         // all zeros
	f.Add([]byte("SDG1\x08\x00\x00\x00"), uint16(0), uint16(5)) // a snapshot header
	f.Add(bytes.Repeat([]byte{0xff}, 10), e1+3, uint16(epochs[1].LastID-1))
	f.Add(log[1:101], uint16(0), uint16(3))                     // records shifted by a byte
	f.Add(bytes.Repeat([]byte{0x80}, 16), uint16(2), uint16(1)) // unterminated varints
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f}, uint16(20), uint16(0))
	f.Add([]byte{1, 2, 3}, uint16(len(log)), uint16(d.LiveFloor()-2)) // past the end

	all := ref.All()
	f.Fuzz(func(t *testing.T, data []byte, at, pick uint16) {
		if len(data) > 1<<12 {
			t.Skip("bounded: the log is a couple of kilobytes")
		}
		hostile := append([]byte(nil), log...)
		if end := int(at) + len(data); end > len(hostile) {
			hostile = append(hostile, make([]byte, end-len(hostile))...)
		}
		copy(hostile[at:], data)
		if err := os.WriteFile(filepath.Join(dir, spillLog), hostile, 0o644); err != nil {
			t.Fatal(err)
		}
		id := 1 + ID(int(pick)%int(d.LiveFloor()-1))
		i := 0
		for id > epochs[i].LastID {
			i++
		}
		off := spillOffset(epochs, i)
		got, err := d.ParamsOf(id)
		if err != nil {
			if !strings.Contains(err.Error(), fmt.Sprintf("epoch %d:", epochs[i].Epoch)) {
				t.Fatalf("ParamsOf(%d): %v, want an error naming epoch %d", id, err, epochs[i].Epoch)
			}
			return
		}
		end := off + recordsSize(all[epochs[i].FirstID:id+1])
		if bytes.Equal(hostile[off:end], log[off:end]) && !slices.Equal(got, ref.MustGet(id).Params) {
			t.Fatalf("tx %d reloads as %v from untouched bytes, written from %v", id, got, ref.MustGet(id).Params)
		}
	})
}
