// Package dag is a fixture for the tangle's package: besides bench/ the one
// place that may lay out bytes with encoding/binary, and the home of the
// no-op SetParallelism, whose declaration is not a call.
package dag

import "encoding/binary"

type DAG struct{}

func (d *DAG) SetParallelism(workers int) {}

func Put(b []byte, v uint64) int { return binary.PutUvarint(b, v) }

func selfWire(d *DAG) {
	d.SetParallelism(2) // want `SetParallelism in forbid/internal/dag: every cumulative weight is dag's sequential sweepWeights`
}
