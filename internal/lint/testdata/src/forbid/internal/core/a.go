// Package core is a fixture under internal/: every retired spelling is a
// finding here.
package core

import (
	"encoding/binary" // want `"encoding/binary" in forbid/internal/core: dag.Codec is the module's one binary codec`
	"encoding/gob"    // want `"encoding/gob" in forbid/internal/core`
	"io"
	"os"
	sys "os"
	"runtime"

	"forbid/internal/dag"
)

func knobs() (string, bool) {
	_, ok := sys.LookupEnv("SPECDAG_FAST")  // want `os.LookupEnv in forbid/internal/core`
	return os.Getenv("SPECDAG_WORKERS"), ok // want `os.Getenv in forbid/internal/core: the commands' flags are the only knobs`
}

func goroutineID() []byte {
	buf := make([]byte, 64)
	return buf[:runtime.Stack(buf, false)] // want `runtime.Stack in forbid/internal/core: the budget accounts by slots`
}

func encode(w io.Writer, v any) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], 1)
	return gob.NewEncoder(w).Encode(v)
}

type sink struct{}

func (sink) KeepCheckpoint() {} // want `KeepCheckpoint in forbid/internal/core: a checkpoint is an engine.Checkpoint value`

type AtomicFile struct{} // want `AtomicFile in forbid/internal/core`

func fail(pw *io.PipeWriter, err error) error {
	return pw.CloseWithError(err) // want `CloseWithError in forbid/internal/core`
}

func cumulativeWeightsParallel() {} // want `cumulativeWeightsParallel in forbid/internal/core`

const cumWeightsParallelMin = 128 // want `cumWeightsParallelMin in forbid/internal/core`

func wire(d *dag.DAG) {
	d.SetParallelism(4) // want `SetParallelism in forbid/internal/core: .*nothing outside bench/ wires a budget into the tangle`
}

func audited() string {
	//speclint:allow forbid fixture demonstrating an audited exception
	return os.Getenv("HOME")
}
