//go:build !amd64 || purego

package nn

import "testing"

// eachBackend runs f on the only kernels this build has (off amd64, or under
// the purego tag).
func eachBackend(t *testing.T, f func()) { f() }
