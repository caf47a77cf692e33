package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"github.com/specdag/specdag/internal/lint/linttest"
)

// buildSpeclint compiles the vettool into a temp dir and returns its path.
func buildSpeclint(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "speclint")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building speclint: %v\n%s", err, out)
	}
	return bin
}

// TestRepoIsSpeclintClean is the acceptance gate: the whole module must pass
// the suite with zero unsuppressed diagnostics, through the go vet protocol.
func TestRepoIsSpeclintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("vets the whole module; skipped in -short mode")
	}
	bin := buildSpeclint(t)
	root, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}").Output()
	if err != nil {
		t.Fatalf("locating module root: %v", err)
	}
	linttest.DependOnSources(t, strings.TrimSpace(string(root)))
	cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = strings.TrimSpace(string(root))
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Errorf("go vet -vettool=speclint ./... failed: %v\n%s", err, out)
	}
}

// TestVettoolReportsViolations drives the full go vet protocol against a
// scratch module seeded with contract violations, proving the unitchecker
// driver (config parsing, export-data type-checking, diagnostics, exit
// codes) works outside the in-process test harness.
func TestVettoolReportsViolations(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go toolchain; skipped in -short mode")
	}
	bin := buildSpeclint(t)
	dir := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module scratch\n\ngo 1.24\n")
	write("internal/core/core.go", `package core

import (
	"math/rand"
	"os"
)

func Draw() int {
	n := 0
	go func() { n++ }()
	return rand.Intn(10) + n + len(os.Getenv("SEED"))
}
`)
	cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet passed on a module seeded with violations:\n%s", out)
	}
	for _, wantFragment := range []string{
		"math/rand.Intn in deterministic package core",
		"naked go statement outside internal/par",
		"os.Getenv in scratch/internal/core",
	} {
		if !strings.Contains(string(out), wantFragment) {
			t.Errorf("vet output missing %q:\n%s", wantFragment, out)
		}
	}
}
