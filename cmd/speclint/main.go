// Command speclint is the repository's determinism-and-concurrency vettool:
// it runs the internal/lint analyzer suite (detrand, maporder, budget,
// kernelorder, forbid) over type-checked packages.
//
// It speaks the go vet tool protocol, so the canonical invocation is
//
//	go build -o "$(go env GOPATH)/bin/speclint" ./cmd/speclint
//	go vet -vettool="$(which speclint)" ./...
//
// which is exactly what the CI lint job runs. For convenience, invoking it
// with package patterns instead of a .cfg file re-execs itself through
// go vet:
//
//	speclint ./...
//
// Findings are suppressed per line with `//speclint:allow <analyzer>
// <reason>`; the reason is mandatory and stale or malformed directives are
// themselves findings. See internal/lint for the contract each analyzer
// enforces and README.md's "Determinism contracts" section for the policy.
package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"

	"github.com/specdag/specdag/internal/lint"
)

func main() {
	args := os.Args[1:]

	// go vet tool protocol, part 1: report a unique version string that the
	// go command folds into its action cache key, so rebuilding speclint
	// invalidates cached vet results.
	if len(args) == 1 && (args[0] == "-V=full" || args[0] == "-V") {
		fmt.Printf("speclint version devel buildID=%02x\n", executableSum())
		return
	}
	// go vet tool protocol, part 2: enumerate tool-specific flags (none).
	if len(args) == 1 && args[0] == "-flags" {
		fmt.Println("[]")
		return
	}
	// go vet tool protocol, part 3: analyze one package described by a
	// JSON .cfg file written by the go command.
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(lint.RunUnitFile(args[0], lint.All(), os.Stderr))
	}

	// Convenience mode: treat the arguments as package patterns and drive
	// go vet with ourselves as the tool.
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "speclint: locating own executable: %v\n", err)
		os.Exit(1)
	}
	if len(args) == 0 {
		args = []string{"./..."}
	}
	cmd := exec.Command("go", append([]string{"vet", "-vettool=" + self}, args...)...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			os.Exit(ee.ExitCode())
		}
		fmt.Fprintf(os.Stderr, "speclint: running go vet: %v\n", err)
		os.Exit(1)
	}
}

// executableSum hashes the running binary so the version string (and with
// it the go command's vet cache) changes whenever speclint is rebuilt.
func executableSum() []byte {
	self, err := os.Executable()
	if err != nil {
		return []byte("unknown")
	}
	f, err := os.Open(self)
	if err != nil {
		return []byte("unknown")
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return []byte("unknown")
	}
	return h.Sum(nil)[:8]
}
