//go:build !amd64

package xrand

import "testing"

// eachPath runs f once: off amd64 the Go loops are the only path.
func eachPath(t testing.TB, f func()) {
	t.Log("xrand: generic")
	f()
}
