//go:build !amd64 || purego

package xrand

import "testing"

// eachPath runs f once: off amd64 or under the purego tag the Go loops are the
// only path.
func eachPath(t testing.TB, f func()) {
	t.Log("xrand: generic")
	f()
}
