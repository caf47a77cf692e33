// Package app is a fixture outside internal/ and bench/: a stack dump is
// allowed here, an environment read is not.
package app

import (
	"os"
	"runtime"
)

func dump() []byte {
	buf := make([]byte, 1<<10)
	return buf[:runtime.Stack(buf, true)]
}

func knob() string {
	return os.Getenv("X") // want `os.Getenv in forbid/app`
}

// Getenv only shares os.Getenv's name: it reads no environment.
func Getenv(key string) string { return key }

func local() string { return Getenv("X") }
