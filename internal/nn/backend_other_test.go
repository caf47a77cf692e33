//go:build !amd64

package nn

import "testing"

// eachBackend runs f on the only kernels this architecture has.
func eachBackend(t *testing.T, f func()) { f() }
