// Package bench is a fixture for the benchmark harness, which keeps the
// spellings it still measures with.
package bench

import (
	"encoding/binary"
	"encoding/gob"
	"io"
	"os"

	"forbid/internal/dag"
)

func digest(w io.Writer, v any) error { return gob.NewEncoder(w).Encode(v) }

func width() int { return binary.MaxVarintLen64 }

func seed() string { return os.Getenv("BENCH_SEED") }

func probe(d *dag.DAG) { d.SetParallelism(2) }
