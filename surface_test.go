package specdag_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestPublicSurfaceIsUsed pins the rule the facade is cut by: an exported
// name of package specdag stays iff an Example function spells it, the
// README spells it as specdag.<Name>, or it appears in the signature of an
// exported function that itself stays. To keep a name, make an example use
// it. The other direction holds too: every specdag.<Name> the README spells
// must exist.
func TestPublicSurfaceIsUsed(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}      // top-level names of the package
	signature := map[string][]string{} // exported function → identifiers in its signature
	for _, f := range pkgs["specdag"].Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil || !d.Name.IsExported() {
					continue
				}
				declared[d.Name.Name] = true
				ast.Inspect(d.Type, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						signature[d.Name.Name] = append(signature[d.Name.Name], id.Name)
					}
					return true
				})
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						declared[s.Name.Name] = true
					case *ast.ValueSpec:
						for _, id := range s.Names {
							declared[id.Name] = true
						}
					}
				}
			}
		}
	}

	used := map[string]bool{}
	examples, err := parser.ParseFile(fset, "example_test.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ast.Inspect(examples, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "specdag" {
				used[sel.Sel.Name] = true
			}
		}
		return true
	})
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range regexp.MustCompile(`\bspecdag\.([A-Z]\w*)`).FindAllSubmatch(readme, -1) {
		name := string(m[1])
		if !declared[name] {
			t.Errorf("README.md spells specdag.%s, which package specdag does not export", name)
		}
		used[name] = true
	}
	for grew := true; grew; {
		grew = false
		for fn, ids := range signature {
			if !used[fn] {
				continue
			}
			for _, id := range ids {
				if declared[id] && !used[id] {
					used[id], grew = true, true
				}
			}
		}
	}

	var unused []string
	for name := range declared {
		if ast.IsExported(name) && !used[name] {
			unused = append(unused, name)
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Errorf("%d exported names are used by no Example, no README snippet and no kept signature:\n  %s",
			len(unused), strings.Join(unused, "\n  "))
	}
}
