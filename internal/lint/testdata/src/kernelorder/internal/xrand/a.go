// Package xrand is a fixture standing in for the generator package: only its
// assembly is held to the kernel rule. Its Go copies math/rand's float32
// wedge test, which the analyzer must leave alone.
package xrand

func wedge(f0, f1, u float32) float32 {
	return f0 + u*(f1-f0)
}
