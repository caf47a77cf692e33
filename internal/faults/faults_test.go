package faults

import (
	"testing"

	"github.com/specdag/specdag/internal/xrand"
)

func ids(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"zero", Config{}, true},
		{"scalar", Scalar(0.5), true},
		{"negative delay", Config{Delay: -1}, false},
		{"drop without retransmit", Config{DropProb: 0.1}, false},
		{"drop with retransmit", Config{DropProb: 0.1, Retransmit: 2}, true},
		{"drop certainty", Config{DropProb: 1, Retransmit: 2}, false},
		{"straggler without factor", Config{StragglerFrac: 0.5}, false},
		{"straggler shrinking", Config{StragglerFrac: 0.5, StragglerFactor: 0.5}, false},
		{"straggler", Config{StragglerFrac: 0.5, StragglerFactor: 3}, true},
		{"churn without downtime", Config{ChurnFrac: 0.25}, false},
		{"churn", Config{ChurnFrac: 0.25, MaxDowntime: 10}, true},
		{"partition one group", Config{Partitions: []Partition{{From: 1, To: 2, Groups: 1}}}, false},
		{"partition inverted", Config{Partitions: []Partition{{From: 2, To: 1, Groups: 2}}}, false},
		{"partition overlap", Config{Partitions: []Partition{{From: 1, To: 5, Groups: 2}, {From: 4, To: 8, Groups: 2}}}, false},
		{"partitions sorted", Config{Partitions: []Partition{{From: 1, To: 5, Groups: 2}, {From: 5, To: 8, Groups: 3}}}, true},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: expected a validation error", tc.name)
		}
	}
}

func TestUniform(t *testing.T) {
	m, err := New(Scalar(0.5), xrand.New(1), ids(10), 100)
	if err != nil {
		t.Fatal(err)
	}
	if d, ok := m.Uniform(); !ok || d != 0.5 {
		t.Fatalf("Scalar model Uniform() = (%v, %v), want (0.5, true)", d, ok)
	}
	m, err = New(Config{Delay: 0.5, Jitter: 0.1}, xrand.New(1), ids(10), 100)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Uniform(); ok {
		t.Fatal("jittered model reported Uniform() = true")
	}
}

// TestDeterminism pins that the whole schedule is a pure function of
// (config, seed, clients, horizon): two independently constructed models
// agree on every query, and a different seed produces a different schedule.
func TestDeterminism(t *testing.T) {
	cfg := Config{
		Delay: 0.5, Jitter: 0.3, DropProb: 0.2, Retransmit: 2, DupProb: 0.1,
		Partitions:    []Partition{{From: 20, To: 40, Groups: 2}},
		StragglerFrac: 0.3, StragglerFactor: 3,
		ChurnFrac: 0.3, MaxDowntime: 15,
	}
	a, err := New(cfg, xrand.New(42), ids(12), 100)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg, xrand.New(42), ids(12), 100)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 12; id++ {
		if a.CycleFactor(id) != b.CycleFactor(id) {
			t.Fatalf("client %d: cycle factor %v vs %v", id, a.CycleFactor(id), b.CycleFactor(id))
		}
		wa, oka := a.CrashWindow(id)
		wb, okb := b.CrashWindow(id)
		if oka != okb || wa != wb {
			t.Fatalf("client %d: crash window (%v, %v) vs (%v, %v)", id, wa, oka, wb, okb)
		}
		for obs := 0; obs < 12; obs++ {
			da := a.Deliver(7, id, obs, 10)
			db := b.Deliver(7, id, obs, 10)
			if da != db {
				t.Fatalf("link %d->%d: delivery %+v vs %+v", id, obs, da, db)
			}
		}
	}
	// A different seed must not reproduce the same straggler/churn draw for
	// every client (astronomically unlikely if the seed actually matters).
	c, err := New(cfg, xrand.New(43), ids(12), 100)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for id := 0; id < 12; id++ {
		wa, _ := a.CrashWindow(id)
		wc, _ := c.CrashWindow(id)
		if a.CycleFactor(id) != c.CycleFactor(id) || wa != wc {
			same = false
		}
	}
	if same {
		t.Fatal("seed 42 and 43 produced identical schedules")
	}
}

func TestStragglerAndChurnCounts(t *testing.T) {
	cfg := Config{
		StragglerFrac: 0.25, StragglerFactor: 3,
		ChurnFrac: 0.5, MaxDowntime: 10,
	}
	m, err := New(cfg, xrand.New(7), ids(16), 100)
	if err != nil {
		t.Fatal(err)
	}
	stragglers, crashed := 0, 0
	for id := 0; id < 16; id++ {
		if m.CycleFactor(id) == 3 {
			stragglers++
		}
		if w, ok := m.CrashWindow(id); ok {
			crashed++
			if w.From < 0 || w.From >= 100 {
				t.Errorf("client %d crash start %v outside [0, horizon)", id, w.From)
			}
			if w.To <= w.From || w.To > w.From+10 {
				t.Errorf("client %d crash window %+v longer than MaxDowntime or empty", id, w)
			}
		}
	}
	if stragglers != 4 {
		t.Errorf("got %d stragglers, want 4 (25%% of 16)", stragglers)
	}
	if crashed != 8 {
		t.Errorf("got %d crashed clients, want 8 (50%% of 16)", crashed)
	}
	if m.CycleFactor(9999) != 1 {
		t.Error("unknown ID must never be a straggler")
	}
}

func TestCrashedAndRecovery(t *testing.T) {
	cfg := Config{ChurnFrac: 1, MaxDowntime: 10}
	m, err := New(cfg, xrand.New(3), ids(4), 100)
	if err != nil {
		t.Fatal(err)
	}
	w, ok := m.CrashWindow(2)
	if !ok {
		t.Fatal("ChurnFrac 1 must crash every client")
	}
	if m.Crashed(2, w.From-0.001) || !m.Crashed(2, w.From) || m.Crashed(2, w.To) {
		t.Fatalf("crash window [%v, %v) must be half-open", w.From, w.To)
	}
	mid := (w.From + w.To) / 2
	if got := m.Recovery(2, mid); got != w.To {
		t.Fatalf("Recovery mid-window = %v, want %v", got, w.To)
	}
	if got := m.Recovery(2, w.To+1); got != w.To+1 {
		t.Fatalf("Recovery after the window = %v, want the query time", got)
	}
}

func TestPartitioned(t *testing.T) {
	cfg := Config{Partitions: []Partition{{From: 10, To: 20, Groups: 2}}}
	m, err := New(cfg, xrand.New(5), ids(8), 100)
	if err != nil {
		t.Fatal(err)
	}
	// Find a split pair; with 8 clients and 2 groups one always exists
	// unless the draw degenerated, which the assertion below catches.
	var a, b = -1, -1
	for i := 0; i < 8 && a < 0; i++ {
		for j := i + 1; j < 8; j++ {
			if m.Partitioned(i, j, 15) {
				a, b = i, j
				break
			}
		}
	}
	if a < 0 {
		t.Fatal("no partitioned pair found inside the window")
	}
	if m.Partitioned(a, b, 5) || m.Partitioned(a, b, 20) {
		t.Error("partition must only hold inside [From, To)")
	}
	if m.Partitioned(a, a, 15) {
		t.Error("a client is never partitioned from itself")
	}
	if !m.PartitionDeferred(15, a, b, 18) {
		t.Error("message published mid-window across the split must be deferred while the window is live")
	}
	if m.PartitionDeferred(15, a, b, 20) {
		t.Error("heal time must release deferred messages")
	}
	if m.PartitionDeferred(5, a, b, 15) {
		t.Error("messages published before the window were already delivered")
	}
}

func TestDeliver(t *testing.T) {
	cfg := Config{
		Delay: 1, Jitter: 0.5, DropProb: 0.3, Retransmit: 2,
		Partitions: []Partition{{From: 10, To: 20, Groups: 2}},
	}
	m, err := New(cfg, xrand.New(11), ids(8), 100)
	if err != nil {
		t.Fatal(err)
	}
	// Self-delivery: exactly the base delay, no drops, no duplicates.
	if d := m.Deliver(3, 2, 2, 7); d != (Delivery{VisibleAt: 8}) {
		t.Fatalf("self delivery = %+v, want bare base delay", d)
	}
	// Cross deliveries: at least base delay, jitter bounded, drops priced.
	for obs := 0; obs < 8; obs++ {
		d := m.Deliver(3, 2, obs, 7)
		min := 8.0 + float64(d.Dropped)*2
		if d.VisibleAt < min || (d.Dropped == 0 && d.VisibleAt >= 8.5 && !insidePartition(m, 2, obs, d.VisibleAt)) {
			t.Errorf("link 2->%d: VisibleAt %v outside [%v, %v) (+partition deferral), dropped %d", obs, d.VisibleAt, min, min+0.5, d.Dropped)
		}
	}
	// Partition deferral: a message arriving inside a separating window
	// waits for the heal.
	var split = -1
	for obs := 0; obs < 8; obs++ {
		if m.Partitioned(0, obs, 15) {
			split = obs
			break
		}
	}
	if split < 0 {
		t.Fatal("no partitioned pair")
	}
	plain := Config{Delay: 1, Partitions: cfg.Partitions}
	pm, err := New(plain, xrand.New(11), ids(8), 100)
	if err != nil {
		t.Fatal(err)
	}
	if d := pm.Deliver(0, 0, split, 12); d.VisibleAt != 20 {
		t.Fatalf("mid-partition delivery arrives at %v, want deferral to heal time 20", d.VisibleAt)
	}
	if d := pm.Deliver(0, 0, split, 5); d.VisibleAt != 6 {
		t.Fatalf("pre-partition delivery arrives at %v, want 6", d.VisibleAt)
	}
}

func insidePartition(m *Model, a, b int, t float64) bool {
	return m.Partitioned(a, b, t)
}

func TestConfigEqual(t *testing.T) {
	a := Config{Delay: 0.5, Partitions: []Partition{{From: 1, To: 2, Groups: 2}}}
	b := Config{Delay: 0.5, Partitions: []Partition{{From: 1, To: 2, Groups: 2}}}
	if !a.Equal(b) {
		t.Fatal("identical configs must compare equal")
	}
	b.Partitions[0].Groups = 3
	if a.Equal(b) {
		t.Fatal("different partition groups must compare unequal")
	}
	if a.Equal(Config{Delay: 0.5}) {
		t.Fatal("missing partitions must compare unequal")
	}
}

var delivered float64

// BenchmarkDeliver is one publication reaching a 50-client federation over
// jittered, lossy links: each of the 49 other observers costs two seed
// splits (the publication's, then the link's) and a few draws from the leaf.
func BenchmarkDeliver(b *testing.B) {
	b.ReportAllocs()
	m, err := New(Config{Delay: 0.1, Jitter: 0.2, DropProb: 0.1, Retransmit: 0.5}, xrand.New(1), ids(50), 1000)
	if err != nil {
		b.Fatal(err)
	}
	seq := 0
	for b.Loop() {
		for obs := 0; obs < 50; obs++ {
			delivered += m.Deliver(seq, 0, obs, float64(seq)).VisibleAt
		}
		seq++
	}
}
