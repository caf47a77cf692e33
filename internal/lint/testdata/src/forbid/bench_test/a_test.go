// Package bench_test stands for bench's external tests, which share its
// exemption.
package bench_test

import "forbid/internal/dag"

func probe(d *dag.DAG) { d.SetParallelism(2) }
