package core

import (
	"os"
	"runtime"
)

// Test files may read the environment (an opt-in for a slow lane), but a
// goroutine's stack stays unparsed under internal/ in tests too.
func largeGrid() bool { return os.Getenv("SPECDAG_LARGE_GRID") != "" }

func testStack() int {
	buf := make([]byte, 64)
	return runtime.Stack(buf, true) // want `runtime.Stack in forbid/internal/core`
}
