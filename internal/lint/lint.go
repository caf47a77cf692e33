// Package lint implements speclint: a suite of static analyzers that move
// this repository's determinism and concurrency contracts from test-time to
// compile-time. The contracts themselves predate the linter — bit-identical
// results for any worker count, RNG streams as pure seed splits, goroutine
// fan-out bounded by par.Budget, accumulation order as documented API, and
// byte-stable checkpoint codecs — but until now they were enforced only by
// the invariance and resume-equivalence suites, which a new code path can
// silently bypass.
//
// The four analyzers (see All):
//
//	detrand     — no ambient randomness or wall clock in deterministic packages
//	maporder    — no order-sensitive iteration over maps in deterministic packages
//	budget      — no naked go statements outside internal/par
//	kernelorder — no math.FMA or float32 arithmetic in the default mathx backend,
//	              Go or assembly (fused only where the reference fuses)
//
// The suite runs as a vettool (cmd/speclint) under "go vet -vettool=", using
// a small local reimplementation of the golang.org/x/tools/go/analysis
// surface: the build environment is hermetic (no module downloads), so the
// framework is written against the standard library only. Analyzers receive
// a type-checked package and report position-tagged diagnostics; the runner
// applies suppression directives and audits them.
//
// # Suppressions
//
// A finding can be suppressed with a directive comment on the offending line
// or on the line directly above it:
//
//	//speclint:allow <analyzer> <reason>
//
// The reason is mandatory and should say why the contract does not apply
// (not what the code does). Directives are audited by the runner itself:
// a directive with a missing reason, an unknown analyzer name, or one that
// suppresses no diagnostic is reported as a diagnostic in its own right, so
// suppressions cannot rot silently.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one speclint check. It mirrors the shape of
// golang.org/x/tools/go/analysis.Analyzer (Name/Doc/Run over a Pass) so the
// checks could migrate to the upstream framework without rewriting, but it
// is self-contained: no facts, no sub-results, no dependencies between
// analyzers.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //speclint:allow directives. It must be a single lower-case word.
	Name string
	// Doc is a one-paragraph description of the contract the analyzer
	// enforces.
	Doc string
	// Run inspects the package and reports findings through pass.Reportf.
	Run func(pass *Pass) error
}

// A Pass provides one analyzer with a single type-checked package to
// inspect.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// OtherFiles are the paths of the package's non-Go sources (assembly).
	OtherFiles []string

	report func(Diagnostic)
}

// Reportf records a finding at pos. The message should name the violated
// contract and the sanctioned alternative.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of expression e, or nil if not found.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.TypesInfo.TypeOf(e)
}

// IsTestFile reports whether the file containing pos is a _test.go file.
// Test files may violate the runtime contracts on purpose (stress tests
// spawn raw goroutines), so most analyzers skip them.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// A Diagnostic is one finding, attributed to the analyzer that produced it.
type Diagnostic struct {
	Analyzer string
	Pos      token.Pos
	Message  string
}

// deterministicPkgs are the final path elements of packages whose results
// must be a pure function of (config, seed): everything that executes
// between "construct an engine" and "read its results". Packages outside
// this set (CLIs, profiling, the par runtime, xrand itself) may touch the
// wall clock and ambient randomness.
//
// The serving subsystem is deliberately absent: internal/serve and
// internal/wire sit at the transport boundary, where wall-clock time
// (status reporting, reconnect backoff, shutdown grace) and long-lived
// supervisor goroutines are the job, not a contract violation. The engines
// they host and the event payloads they carry stay inside the deterministic
// set — serving a run changes none of its numerics, which the serve
// package's round-trip equivalence tests pin. The budget analyzer still
// applies there: serve's run supervisors are audited //speclint:allow
// sites, not an exempt package (see TestDeterministicPkgSet and the
// budget/internal/serve fixture).
var deterministicPkgs = []string{
	"internal/core",
	"internal/dag",
	"internal/faults",
	"internal/nn",
	"internal/mathx",
	"internal/tipselect",
	"internal/fl",
	"internal/engine",
	"internal/dataset",
	"internal/sim",
	"internal/graphx",
	"internal/metrics",
}

// pathHasSuffix reports whether path ends with the given slash-separated
// suffix on a path-segment boundary ("x/internal/core" matches
// "internal/core"; "x/internal/coreutils" does not). Matching by suffix
// rather than full path keeps the analyzers testable against fixture
// packages whose import paths mirror the real layout under a test prefix.
func pathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// IsDeterministicPkg reports whether the import path names one of the
// packages bound by the determinism contract.
func IsDeterministicPkg(path string) bool {
	for _, p := range deterministicPkgs {
		if pathHasSuffix(path, p) {
			return true
		}
	}
	return false
}

// All returns the full speclint suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{Detrand, MapOrder, Budget, KernelOrder}
}

// directivePrefix introduces a speclint control comment. gofmt preserves
// the no-space directive form (like //go:build and //nolint).
const directivePrefix = "//speclint:"

// A directive is one parsed //speclint:allow comment.
type directive struct {
	pos       token.Pos
	line      int
	analyzer  string
	reason    string
	malformed string // non-empty: why the directive is invalid
	used      bool
}

// parseDirectives extracts every speclint directive from a file, validating
// verb, analyzer name, and the mandatory reason.
func parseDirectives(fset *token.FileSet, f *ast.File, known map[string]bool) []*directive {
	var out []*directive
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, directivePrefix) {
				continue
			}
			d := &directive{pos: c.Pos(), line: fset.Position(c.Pos()).Line}
			rest := strings.TrimPrefix(c.Text, directivePrefix)
			// A nested "//" ends the directive (it introduces a trailing
			// comment, e.g. the // want markers in the fixture suites).
			if i := strings.Index(rest, "//"); i >= 0 {
				rest = rest[:i]
			}
			rest = strings.TrimSpace(rest)
			verb, args, _ := strings.Cut(rest, " ")
			if verb != "allow" {
				d.malformed = fmt.Sprintf("unknown speclint verb %q (only //speclint:allow is defined)", verb)
				out = append(out, d)
				continue
			}
			name, reason, _ := strings.Cut(strings.TrimSpace(args), " ")
			reason = strings.TrimSpace(reason)
			switch {
			case name == "":
				d.malformed = "//speclint:allow needs an analyzer name and a reason"
			case !known[name]:
				d.malformed = fmt.Sprintf("//speclint:allow names unknown analyzer %q", name)
			case reason == "":
				d.malformed = fmt.Sprintf("//speclint:allow %s needs a reason: say why the contract does not apply here", name)
			default:
				d.analyzer = name
				d.reason = reason
			}
			out = append(out, d)
		}
	}
	return out
}

// Check runs every analyzer over one type-checked package (otherFiles are
// its non-Go sources, which kernelorder reads), applies the
// //speclint:allow directives, audits them, and returns the surviving
// diagnostics sorted by position. It is the single entry point shared by
// the vettool driver and the analysistest-style harness.
func Check(fset *token.FileSet, files []*ast.File, otherFiles []string, pkg *types.Package, info *types.Info, analyzers []*Analyzer) ([]Diagnostic, error) {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var directives []*directive
	for _, f := range files {
		directives = append(directives, parseDirectives(fset, f, known)...)
	}
	// Index valid directives by the lines they govern: their own line and
	// the line below (the "directive on the line above" style).
	byLine := make(map[string]map[int]*directive)
	for _, d := range directives {
		if d.malformed != "" {
			continue
		}
		file := fset.Position(d.pos).Filename
		if byLine[file] == nil {
			byLine[file] = make(map[int]*directive)
		}
		byLine[file][d.line] = d
	}

	var kept []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:   a,
			Fset:       fset,
			Files:      files,
			Pkg:        pkg,
			TypesInfo:  info,
			OtherFiles: otherFiles,
			report: func(diag Diagnostic) {
				posn := fset.Position(diag.Pos)
				if m := byLine[posn.Filename]; m != nil {
					for _, l := range []int{posn.Line, posn.Line - 1} {
						if d := m[l]; d != nil && d.analyzer == diag.Analyzer {
							d.used = true
							return
						}
					}
				}
				kept = append(kept, diag)
			},
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("speclint: analyzer %s: %w", a.Name, err)
		}
	}

	// Audit the directives themselves: malformed ones and ones that
	// suppress nothing are findings. Stale suppressions are how audited
	// exceptions silently outlive the code they excused.
	for _, d := range directives {
		switch {
		case d.malformed != "":
			kept = append(kept, Diagnostic{Analyzer: "speclint", Pos: d.pos, Message: d.malformed})
		case !d.used:
			kept = append(kept, Diagnostic{
				Analyzer: "speclint",
				Pos:      d.pos,
				Message:  fmt.Sprintf("//speclint:allow %s suppresses no diagnostic; delete the stale directive", d.analyzer),
			})
		}
	}

	sort.SliceStable(kept, func(i, j int) bool { return kept[i].Pos < kept[j].Pos })
	return kept, nil
}
