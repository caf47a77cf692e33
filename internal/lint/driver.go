package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"strings"
)

// unitConfig is the JSON configuration the go command writes for a vettool
// invocation (one file per package, suffixed .cfg). The field set mirrors
// the contract documented in golang.org/x/tools/go/analysis/unitchecker;
// only the fields this driver consumes are listed.
type unitConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// RunUnitFile executes the speclint suite for one package described by a go
// vet .cfg file, printing diagnostics to w in the standard
// file:line:col: message form. It returns the process exit code: 0 clean,
// 1 driver/type-check failure, 2 diagnostics reported — the unitchecker
// convention the go command expects.
func RunUnitFile(cfgFile string, analyzers []*Analyzer, w io.Writer) int {
	cfg, err := readUnitConfig(cfgFile)
	if err != nil {
		fmt.Fprintf(w, "speclint: %v\n", err)
		return 1
	}
	// The go command schedules a facts-only pass over every dependency.
	// speclint uses no cross-package facts, so dependency passes only need
	// to produce their (empty) output file.
	if cfg.VetxOnly {
		if err := writeVetx(cfg); err != nil {
			fmt.Fprintf(w, "speclint: %v\n", err)
			return 1
		}
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0
			}
			fmt.Fprintf(w, "speclint: %v\n", err)
			return 1
		}
		files = append(files, f)
	}

	compilerImporter := importer.ForCompiler(fset, compilerOrGC(cfg.Compiler), func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no package file for %q", path)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(importPath string) (*types.Package, error) {
		if importPath == "unsafe" {
			return types.Unsafe, nil
		}
		if mapped, ok := cfg.ImportMap[importPath]; ok {
			importPath = mapped
		}
		return compilerImporter.Import(importPath)
	})

	tcfg := types.Config{
		Importer:  imp,
		GoVersion: cfg.GoVersion,
		Sizes:     types.SizesFor(compilerOrGC(cfg.Compiler), build.Default.GOARCH),
	}
	info := newTypesInfo()
	pkg, err := tcfg.Check(normalizeImportPath(cfg.ImportPath), fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(w, "speclint: typecheck %s: %v\n", cfg.ImportPath, err)
		return 1
	}

	diags, err := Check(fset, files, cfg.NonGoFiles, pkg, info, analyzers)
	if err != nil {
		fmt.Fprintf(w, "%v\n", err)
		return 1
	}
	for _, d := range diags {
		fmt.Fprintf(w, "%s: %s [%s]\n", fset.Position(d.Pos), d.Message, d.Analyzer)
	}
	if err := writeVetx(cfg); err != nil {
		fmt.Fprintf(w, "speclint: %v\n", err)
		return 1
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}

func readUnitConfig(cfgFile string) (*unitConfig, error) {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		return nil, err
	}
	cfg := new(unitConfig)
	if err := json.Unmarshal(data, cfg); err != nil {
		return nil, fmt.Errorf("parsing vet config %s: %w", cfgFile, err)
	}
	return cfg, nil
}

// writeVetx writes the (empty) facts output the go command caches for this
// package. The file must exist even when speclint has nothing to record.
func writeVetx(cfg *unitConfig) error {
	if cfg.VetxOutput == "" {
		return nil
	}
	return os.WriteFile(cfg.VetxOutput, nil, 0o666)
}

func compilerOrGC(c string) string {
	if c == "" {
		return "gc"
	}
	return c
}

// normalizeImportPath strips the " [pkg.test]" variant suffix the go
// command appends for test builds, so the path-based package predicates
// treat a package and its internal-test variant identically.
func normalizeImportPath(p string) string {
	if i := strings.IndexByte(p, ' '); i >= 0 {
		return p[:i]
	}
	return p
}

func newTypesInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Instances:  map[*ast.Ident]types.Instance{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
