// Package linttest is a self-contained analogue of
// golang.org/x/tools/go/analysis/analysistest for the speclint suite: it
// loads fixture packages from a testdata/src tree, type-checks them, runs
// one analyzer through the shared lint.Check entry point (so suppression
// directives and the directive audit behave exactly as under go vet), and
// compares the diagnostics against `// want "regexp"` expectations embedded
// in the fixtures.
//
// Fixture import paths are directory paths relative to testdata/src, so a
// fixture that must count as a deterministic package simply lives at a path
// ending in one — e.g. testdata/src/detrand/internal/core. Imports between
// fixtures resolve within the tree; all other imports (the standard
// library) resolve through `go list -export`, which works offline against
// the local toolchain.
package linttest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"github.com/specdag/specdag/internal/lint"
)

// TestData returns the absolute path of the calling test's testdata
// directory.
func TestData() string {
	wd, err := os.Getwd()
	if err != nil {
		panic(err)
	}
	return filepath.Join(wd, "testdata")
}

// Run loads each fixture package below dir/src, applies the analyzer, and
// reports mismatches between its diagnostics and the fixtures' // want
// expectations as test errors.
func Run(t *testing.T, dir string, a *lint.Analyzer, pkgPaths ...string) {
	t.Helper()
	l := &loader{
		src:  filepath.Join(dir, "src"),
		fset: token.NewFileSet(),
		pkgs: map[string]*loadedPkg{},
	}
	for _, path := range pkgPaths {
		p, err := l.load(path)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", path, err)
		}
		diags, err := lint.Check(l.fset, p.files, p.otherFiles, p.pkg, p.info, []*lint.Analyzer{a})
		if err != nil {
			t.Fatalf("checking fixture %s: %v", path, err)
		}
		checkExpectations(t, l.fset, p.files, p.otherFiles, diags)
	}
}

type loadedPkg struct {
	pkg        *types.Package
	files      []*ast.File
	otherFiles []string // assembly sources, as go vet's NonGoFiles lists them
	info       *types.Info
}

type loader struct {
	src     string
	fset    *token.FileSet
	pkgs    map[string]*loadedPkg
	exports map[string]string // import path -> export data file (go list -export)
}

func (l *loader) load(path string) (*loadedPkg, error) {
	if p, ok := l.pkgs[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p, nil
	}
	l.pkgs[path] = nil // cycle marker
	dir := filepath.Join(l.src, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	var otherFiles []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".s") {
			otherFiles = append(otherFiles, filepath.Join(dir, e.Name()))
		}
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Instances:  map[*ast.Ident]types.Instance{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	cfg := types.Config{Importer: importerFunc(l.importPkg)}
	pkg, err := cfg.Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	p := &loadedPkg{pkg: pkg, files: files, otherFiles: otherFiles, info: info}
	l.pkgs[path] = p
	return p, nil
}

// importPkg resolves an import from a fixture: fixture-local paths load
// recursively from source, anything else comes from the toolchain's export
// data.
func (l *loader) importPkg(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if st, err := os.Stat(filepath.Join(l.src, filepath.FromSlash(path))); err == nil && st.IsDir() {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.pkg, nil
	}
	imp := importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
		file, err := l.exportFile(path)
		if err != nil {
			return nil, err
		}
		return os.Open(file)
	})
	return imp.Import(path)
}

// exportFile asks the go command for the compiled export data of a
// non-fixture package, caching results across imports.
func (l *loader) exportFile(path string) (string, error) {
	if f, ok := l.exports[path]; ok {
		return f, nil
	}
	out, err := exec.Command("go", "list", "-export", "-f", "{{.Export}}", path).Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return "", fmt.Errorf("go list -export %s: %v: %s", path, err, ee.Stderr)
		}
		return "", fmt.Errorf("go list -export %s: %v", path, err)
	}
	file := strings.TrimSpace(string(out))
	if file == "" {
		return "", fmt.Errorf("no export data for %s", path)
	}
	if l.exports == nil {
		l.exports = map[string]string{}
	}
	l.exports[path] = file
	return file, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// expectation is one parsed `// want "re"` marker.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	text string
	met  bool
}

var wantRe = regexp.MustCompile(`//\s*want\s+(.*)$`)

func collectExpectations(t *testing.T, fset *token.FileSet, files []*ast.File, otherFiles []string) []*expectation {
	t.Helper()
	var out []*expectation
	// want parses one comment's markers, if it has any.
	want := func(text, file string, line int) {
		m := wantRe.FindStringSubmatch(text)
		if m == nil {
			return
		}
		for _, lit := range splitLiterals(m[1]) {
			pattern, err := strconv.Unquote(lit)
			if err != nil {
				t.Errorf("%s:%d: bad want literal %s: %v", file, line, lit, err)
				continue
			}
			re, err := regexp.Compile(pattern)
			if err != nil {
				t.Errorf("%s:%d: bad want regexp %q: %v", file, line, pattern, err)
				continue
			}
			out = append(out, &expectation{file: file, line: line, re: re, text: pattern})
		}
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				posn := fset.Position(c.Pos())
				want(c.Text, posn.Filename, posn.Line)
			}
		}
	}
	// Assembly has no AST: its markers are read off the lines.
	for _, name := range otherFiles {
		src, err := os.ReadFile(name)
		if err != nil {
			t.Errorf("reading fixture: %v", err)
			continue
		}
		for i, line := range strings.Split(string(src), "\n") {
			want(line, name, i+1)
		}
	}
	return out
}

// splitLiterals extracts the Go string literals ("..." or `...`) from the
// tail of a want comment.
func splitLiterals(s string) []string {
	var out []string
	for {
		s = strings.TrimSpace(s)
		if s == "" {
			return out
		}
		switch s[0] {
		case '"':
			end := 1
			for end < len(s) && (s[end] != '"' || s[end-1] == '\\') {
				end++
			}
			if end >= len(s) {
				return out
			}
			out = append(out, s[:end+1])
			s = s[end+1:]
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				return out
			}
			out = append(out, s[:end+2])
			s = s[end+2:]
		default:
			return out
		}
	}
}

func checkExpectations(t *testing.T, fset *token.FileSet, files []*ast.File, otherFiles []string, diags []lint.Diagnostic) {
	t.Helper()
	wants := collectExpectations(t, fset, files, otherFiles)
	for _, d := range diags {
		posn := fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if !w.met && w.file == posn.Filename && w.line == posn.Line && w.re.MatchString(d.Message) {
				w.met = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s [%s]", posn, d.Message, d.Analyzer)
		}
	}
	for _, w := range wants {
		if !w.met {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.text)
		}
	}
}
