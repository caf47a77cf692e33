package lint

import (
	"go/ast"
	"strings"
)

// Forbid keeps retired designs from growing back: one binary codec
// (dag.Codec; no gob, and encoding/binary only in internal/dag), the
// commands' flags as the only knobs, a budget that accounts by slots rather
// than by goroutine identity, one checkpoint protocol and one weight sweep.
// Each rule bars one spelling from a package scope; bench/ keeps the
// spellings it still measures with.
var Forbid = &Analyzer{
	Name: "forbid",
	Doc: "forbid retired spellings per package scope: gob, encoding/binary outside dag, " +
		"environment reads, runtime.Stack under internal/, the writer-sniffing checkpoint " +
		"protocol, the level-parallel weight sweep and DAG.SetParallelism calls",
	Run: runForbid,
}

// A forbidRule bars spell from the packages with under among their path
// elements (every package when empty), except those whose path ends in one
// of except. spell is `"path"` (an import), pkg.Name (a use of that
// package-level object), .Name (a selector: a method or field through any
// value) or Name (any identifier, declared or used).
type forbidRule struct {
	spell  string
	under  string
	except []string
	tests  bool // whether _test.go files count
	why    string
}

var (
	notBench    = []string{"bench"}
	codecWhy    = "dag.Codec is the module's one binary codec"
	envWhy      = "the commands' flags are the only knobs; nothing outside bench/ reads the environment"
	protocolWhy = "a checkpoint is an engine.Checkpoint value, written by engine.WriteAtomic"
	sweepWhy    = "every cumulative weight is dag's sequential sweepWeights on the caller's goroutine"
)

var forbidRules = []forbidRule{
	{`runtime.Stack`, "internal", nil, true, "the budget accounts by slots, not by a goroutine identity parsed out of a stack"},
	{`os.Getenv`, "", notBench, false, envWhy},
	{`os.LookupEnv`, "", notBench, false, envWhy},
	{`"encoding/gob"`, "", notBench, false, codecWhy},
	{`"encoding/binary"`, "", []string{"bench", "internal/dag"}, false, codecWhy},
	{`KeepCheckpoint`, "", notBench, false, protocolWhy},
	{`CloseWithError`, "", notBench, false, protocolWhy},
	{`AtomicFile`, "", notBench, false, protocolWhy},
	{`cumulativeWeightsParallel`, "", notBench, false, sweepWhy},
	{`cumWeightsParallelMin`, "", notBench, false, sweepWhy},
	{`.SetParallelism`, "", notBench, true, sweepWhy + "; nothing outside bench/ wires a budget into the tangle"},
}

func runForbid(pass *Pass) error {
	path := strings.TrimSuffix(pass.Pkg.Path(), "_test") // an external test package counts as the package it tests
	for _, r := range forbidRules {
		scoped := r.under == "" || strings.Contains("/"+path+"/", "/"+r.under+"/")
		for _, e := range r.except {
			scoped = scoped && !pathHasSuffix(path, e)
		}
		if !scoped {
			continue
		}
		report := func(n ast.Node) { pass.Reportf(n.Pos(), "%s in %s: %s", r.spell, pass.Pkg.Path(), r.why) }
		pkg, name, qualified := strings.Cut(r.spell, ".")
		for _, f := range pass.Files {
			if !r.tests && pass.IsTestFile(f.Pos()) {
				continue
			}
			for _, imp := range f.Imports {
				if imp.Path.Value == r.spell {
					report(imp)
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if qualified && pkg == "" && n.Sel.Name == name {
						report(n)
					}
				case *ast.Ident:
					obj := pass.TypesInfo.Uses[n]
					if !qualified && n.Name == r.spell || pkg != "" && n.Name == name && obj != nil &&
						obj.Pkg() != nil && obj.Pkg().Path() == pkg && obj.Pkg().Scope().Lookup(name) == obj {
						report(n)
					}
				}
				return true
			})
		}
	}
	return nil
}
