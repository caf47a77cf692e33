//go:build !amd64 || purego

package xrand

// No assembly off amd64 or under the purego tag: the Go loops are the only
// path, and the dispatch branches on this constant fold away.
const useAVX2 = false

func addAVX2(dst, src *int64, n int)                                    {}
func seedAVX2(dst *int64, mul *uint64, cooked *int64, n int, x0 uint64) {}
func normAVX2(dst *float64, run *int64, n int) int                      { return 0 }
