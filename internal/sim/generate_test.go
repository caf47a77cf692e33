package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"github.com/specdag/specdag/internal/dataset"
)

// The generator gate. testdata/federations.golden holds one sha256 per
// (dataset, preset, seed): every SpecByName dataset at Quick and Full plus
// the long-haul federation, for two seeds. The digest covers each client's
// ID, cluster, and both parts' shapes, features (as float64 bits) and
// labels, so a generator change that moves a single bit — a reordered draw,
// a sample landing in another row — fails here and names the federation.
// Regenerate with
//
//	SPECDAG_REGEN_GOLDEN=1 go test ./internal/sim -run TestFederationsGolden
//
// and only for a change meant to move generated data. Unlike the metric
// golden, these are last-bit pins, taken on amd64 with FMA. Every product
// the generators and xrand add is rounded explicitly, so no compiler fuses
// it into a multiply-add (CI builds ./internal/... for arm64 and fails on a
// fused instruction). What is left: math.Exp (the ziggurat's wedge test)
// picks its FMA path by CPU feature, and FedProx's Sigma_jj = j^-1.2 goes
// through math.Pow, so a host on the other path can differ in the last bit.
const federationsGoldenPath = "testdata/federations.golden"

// federationsGoldenSeeds are the two seeds every federation is pinned at.
var federationsGoldenSeeds = [2]int64{1, 42}

// federationDigest hashes everything a federation's consumers read.
func federationDigest(fed *dataset.Federation) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(len(fed.Clients)))
	for _, c := range fed.Clients {
		put(uint64(c.ID))
		put(uint64(c.Cluster))
		for _, part := range []dataset.Dataset{c.Train, c.Test} {
			put(uint64(part.X.Rows))
			put(uint64(part.X.Cols))
			for _, v := range part.X.Data {
				put(math.Float64bits(v))
			}
			for _, y := range part.Y {
				put(uint64(y))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// federationDigests returns "<dataset>/<preset>/seed<seed> <sha256>" lines
// in a fixed order, and fails the test if a federation's two seeds share a
// digest.
func federationDigests(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	pinSeeds := func(key string, build func(seed int64) *dataset.Federation) {
		var sums [len(federationsGoldenSeeds)]string
		for i, seed := range federationsGoldenSeeds {
			sums[i] = federationDigest(build(seed))
			fmt.Fprintf(&b, "%s/seed%d %s\n", key, seed, sums[i])
		}
		if sums[0] == sums[1] {
			t.Errorf("%s: seeds %d and %d generate the same federation", key, federationsGoldenSeeds[0], federationsGoldenSeeds[1])
		}
	}
	for _, name := range DatasetNames() {
		for _, p := range []Preset{Quick, Full} {
			pinSeeds(name+"/"+p.String(), func(seed int64) *dataset.Federation {
				spec, err := SpecByName(name, p, seed)
				if err != nil {
					t.Fatal(err)
				}
				return spec.Fed
			})
		}
	}
	pinSeeds("longhaul", func(seed int64) *dataset.Federation { return LongHaulSpec(seed).Fed })
	return b.String()
}

// TestFederationsGolden pins every generated federation's bytes.
func TestFederationsGolden(t *testing.T) {
	got := federationDigests(t)
	if os.Getenv("SPECDAG_REGEN_GOLDEN") != "" {
		if err := os.WriteFile(federationsGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(federationsGoldenPath)
	if err != nil {
		t.Fatalf("missing golden (regenerate with SPECDAG_REGEN_GOLDEN=1): %v", err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSuffix(string(golden), "\n"), "\n") {
		key, sum, _ := strings.Cut(line, " ")
		want[key] = sum
	}
	for _, line := range strings.Split(strings.TrimSuffix(got, "\n"), "\n") {
		key, sum, _ := strings.Cut(line, " ")
		switch w, ok := want[key]; {
		case !ok:
			t.Errorf("%s: not in the golden", key)
		case w != sum:
			t.Errorf("%s: digest %s, golden %s", key, sum, w)
		}
		delete(want, key)
	}
	for key := range want {
		t.Errorf("%s: in the golden, not generated", key)
	}
}

// BenchmarkGenerate is the dataset layer's number: one federation built from
// its seed, as a hosted run's submit and every runner do before any engine
// exists. It uses exported API only, so the file runs in an older checkout
// too:
//
//	go test -run '^$' -bench Generate -cpu 1,2 -benchmem ./internal/sim
func BenchmarkGenerate(b *testing.B) {
	for _, bc := range []struct {
		name  string
		build func() *dataset.Federation
	}{
		{"fmnist-quick", func() *dataset.Federation { return FMNISTSpec(Quick, 42).Fed }},
		{"fmnist-full", func() *dataset.Federation { return FMNISTSpec(Full, 42).Fed }},
		{"cifar100-full", func() *dataset.Federation { return CIFARSpec(Full, 42).Fed }},
		{"longhaul", func() *dataset.Federation { return LongHaulSpec(42).Fed }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if fed := bc.build(); len(fed.Clients) == 0 {
					b.Fatal("empty federation")
				}
			}
		})
	}
}
