package lint_test

import (
	"bytes"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"

	"github.com/specdag/specdag/internal/lint/linttest"
)

// fused matches an arm64 fused multiply-add mnemonic (FMADDD, FMSUBS,
// FNMADDD, …).
var fused = regexp.MustCompile(`F(N)?M(ADD|SUB)[DS]`)

// TestPortability checks, with nothing but the local toolchain, what only a
// build for another architecture shows. internal/mathx and internal/xrand
// have assembly on amd64 only; everywhere else their Go loops are the one
// path, so an arm64 build is what notices a missing !amd64 stub, and plain
// vet for amd64 is what frame-checks the assembly against its Go
// declarations (asmdecl: speclint's vet run replaces vet's own analyzers).
// The Go spec lets a compiler fuse x*y + z wherever no conversion rounds the
// product, and the arm64 backend does: every product that feeds a sum is
// written float64(x*y) (float32 in xrand's wedge test) so results keep
// amd64's bits, and the assembly listing of an arm64 build of internal/ and
// cmd/ must hold no fused instruction. bench/ stays out of the scan until its
// own products are rounded. The purego build tag keeps every kernel on its
// Go loop on amd64 too; nothing else builds that tag, so its vet and tests
// run here, where a missing kernels_noasm.go stub for a new symbol shows.
func TestPortability(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the go toolchain; skipped in -short mode")
	}
	linttest.DependOnSources(t, "../..")
	goCmd := func(t *testing.T, goarch string, args ...string) []byte {
		t.Helper()
		cmd := exec.Command("go", args...)
		cmd.Dir = "../.." // the module root
		cmd.Env = append(os.Environ(), "GOARCH="+goarch)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("GOARCH=%s go %s: %v\n%s", goarch, strings.Join(args, " "), err, out[max(0, len(out)-4096):])
		}
		return out
	}
	t.Run("arm64 build", func(t *testing.T) {
		goCmd(t, "arm64", "build", "./...")
	})
	t.Run("arm64 vet", func(t *testing.T) {
		goCmd(t, "arm64", "vet", "./internal/mathx", "./internal/nn", "./internal/xrand")
	})
	t.Run("amd64 asmdecl", func(t *testing.T) {
		goCmd(t, "amd64", "vet", "./internal/mathx", "./internal/xrand")
	})
	t.Run("purego", func(t *testing.T) {
		pkgs := []string{"./internal/mathx", "./internal/nn", "./internal/xrand"}
		goCmd(t, "amd64", append([]string{"vet", "-tags", "purego"}, pkgs...)...)
		goCmd(t, "amd64", append([]string{"test", "-tags", "purego"}, pkgs...)...)
	})
	t.Run("arm64 fused multiply-add", func(t *testing.T) {
		// The go command replays a cached package's listing, so a warm run
		// scans the same text as a cold one.
		listing := goCmd(t, "arm64", "build", "-gcflags=./internal/...=-S", "-gcflags=./cmd/...=-S", "./internal/...", "./cmd/...")
		if !bytes.Contains(listing, []byte("internal/mathx.AffineRows STEXT")) {
			t.Fatalf("the %d-byte arm64 listing lacks mathx.AffineRows: nothing was scanned", len(listing))
		}
		for _, m := range fused.FindAllIndex(listing, 10) {
			start := bytes.LastIndexByte(listing[:m[0]], '\n') + 1
			end := m[1] + max(0, bytes.IndexByte(listing[m[1]:], '\n'))
			t.Errorf("fused multiply-add in an arm64 build: %s", listing[start:end])
		}
	})
}
