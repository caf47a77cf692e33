package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"regexp"
	"strings"
)

// KernelOrder guards the float-determinism contract of internal/mathx: the
// default backend documents its accumulation order as API (kernels.go), so
// every engine result is bit-identical across worker counts, batch shapes,
// and releases. math.FMA contracts a multiply-add into one rounding step and
// float32 arithmetic rounds to a different lattice entirely — either one in
// a default-backend kernel silently changes every golden metric. The
// package's assembly is held to the same rule where it is easiest to break:
// fused multiply-add mnemonics and single-precision arithmetic in a .s file
// are findings too, with one named exception: fused only where the reference
// fuses. mathx's softmaxExp copies math.Exp's FMA branch, which rounds its
// multiply-adds once, so inside that TEXT block the two fused forms the
// branch uses (fusedExceptions) are the contract, not a breach of it.
// internal/xrand's assembly (the generator's pass and the ziggurat's fast
// path) is scanned by the same rule, without the exception; its Go is not,
// because math/rand's wedge test, which it copies, is float32 by definition.
// The deliberate-numerics fast tier planned by the roadmap relaxes this under
// a fastmath build tag, which this analyzer exempts.
var KernelOrder = &Analyzer{
	Name: "kernelorder",
	Doc: "forbid math.FMA and float32 arithmetic in the default mathx backend, " +
		"in Go and (fused or single-precision instructions) in its assembly and " +
		"xrand's, except the fused forms math.Exp's FMA branch uses inside " +
		"mathx's softmaxExp, which copies it: the accumulation order is " +
		"documented API; relaxed kernels belong behind the fastmath build tag",
	Run: runKernelOrder,
}

// fusedExceptions maps the one mathx TEXT block that may fuse to the fused
// mnemonics it may use: softmaxExp is math.Exp's FMA branch (exp_amd64.s) on
// four lanes, and those are the two fused forms that branch executes.
var fusedExceptions = map[string]map[string]bool{
	"softmaxExp": {"VFNMADD231PD": true, "VFMADD213PD": true},
}

// arithmeticAssignOps are the compound assignments that perform float
// arithmetic on their operands.
var arithmeticAssignOps = map[token.Token]bool{
	token.ADD_ASSIGN: true,
	token.SUB_ASSIGN: true,
	token.MUL_ASSIGN: true,
	token.QUO_ASSIGN: true,
}

func runKernelOrder(pass *Pass) error {
	var owner string
	var fusedOK map[string]map[string]bool
	switch path := pass.Pkg.Path(); {
	case pathHasSuffix(path, "internal/mathx"):
		owner = "the default mathx backend"
		fusedOK = fusedExceptions
		checkKernelGo(pass)
	case pathHasSuffix(path, "internal/xrand"):
		owner = "xrand"
	default:
		return nil
	}
	for _, name := range pass.OtherFiles {
		if !strings.HasSuffix(name, ".s") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			return err
		}
		checkKernelAsm(pass, name, src, owner, fusedOK)
	}
	return nil
}

// checkKernelGo reports math.FMA and float32 arithmetic in the default
// backend's non-test Go.
func checkKernelGo(pass *Pass) {
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) || hasFastmathTag(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if obj := pass.TypesInfo.Uses[n.Sel]; obj != nil && obj.Pkg() != nil &&
					obj.Pkg().Path() == "math" && obj.Name() == "FMA" {
					pass.Reportf(n.Pos(),
						"math.FMA in the default mathx backend: fused rounding changes the documented accumulation order; use separate multiply and add, or move the kernel behind the fastmath build tag")
				}
			case *ast.BinaryExpr:
				switch n.Op {
				case token.ADD, token.SUB, token.MUL, token.QUO:
					if isFloat32(pass.TypeOf(n.X)) || isFloat32(pass.TypeOf(n.Y)) {
						pass.Reportf(n.Pos(),
							"float32 arithmetic in the default mathx backend: kernels accumulate in float64 as documented API; use float64, or move the kernel behind the fastmath build tag")
					}
				}
			case *ast.AssignStmt:
				if arithmeticAssignOps[n.Tok] && len(n.Lhs) == 1 && isFloat32(pass.TypeOf(n.Lhs[0])) {
					pass.Reportf(n.Pos(),
						"float32 arithmetic in the default mathx backend: kernels accumulate in float64 as documented API; use float64, or move the kernel behind the fastmath build tag")
				}
			}
			return true
		})
	}
}

// Mnemonics the default backend's assembly may not contain. The fused forms
// round a·b+c once where the contract rounds twice; the single-precision
// forms (and the narrowing conversion that feeds them) leave float64.
var (
	asmFused  = regexp.MustCompile(`^VFN?M(ADD|SUB)`)
	asmNarrow = regexp.MustCompile(`^(V?(ADD|SUB|MUL|DIV)[PS]S|V?CVT[PS]D2[PS]S[XY]?)$`)
	asmIdent  = regexp.MustCompile(`[A-Za-z_][A-Za-z0-9_]*`)
	asmText   = regexp.MustCompile(`^TEXT\s+[^(]*·([A-Za-z0-9_]+)\(SB\)`)
)

// checkKernelAsm reports every forbidden mnemonic of one assembly source. It
// looks at each identifier outside comments rather than at statement heads,
// so a mnemonic inside a macro body or after a label is seen as well. Assembly
// takes no //speclint:allow: the only exceptions are fusedOK's, by TEXT
// block. A block runs from its TEXT line to the next line that starts a
// TEXT, DATA, GLOBL or preprocessor directive, so a macro is judged where it
// is defined, never where it is expanded.
func checkKernelAsm(pass *Pass, name string, src []byte, owner string, fusedOK map[string]map[string]bool) {
	// Registered with the file set, the source's lines have positions, so its
	// findings print and sort like findings in Go.
	file := pass.Fset.AddFile(name, -1, len(src))
	file.SetLinesForContent(src)
	var allowed map[string]bool // the fused mnemonics of the current block
	for i, text := range strings.Split(string(src), "\n") {
		if strings.HasPrefix(text, "//go:build") && strings.Contains(text, "fastmath") {
			return
		}
		if c := strings.Index(text, "//"); c >= 0 {
			text = text[:c]
		}
		switch head := strings.TrimSpace(text); {
		case strings.HasPrefix(head, "TEXT"):
			allowed = nil
			if m := asmText.FindStringSubmatch(head); m != nil {
				allowed = fusedOK[m[1]]
			}
		case strings.HasPrefix(head, "DATA"), strings.HasPrefix(head, "GLOBL"), strings.HasPrefix(head, "#"):
			allowed = nil
		}
		for _, id := range asmIdent.FindAllString(text, -1) {
			switch id = strings.ToUpper(id); {
			case allowed[id]:
			case asmFused.MatchString(id):
				pass.Reportf(file.LineStart(i+1),
					"%s in %s's assembly: a fused multiply-add rounds once where the documented order rounds the product first; use VMULPD then VADDPD", id, owner)
			case asmNarrow.MatchString(id):
				pass.Reportf(file.LineStart(i+1),
					"%s in %s's assembly: single-precision arithmetic; kernels accumulate in float64 as documented API", id, owner)
			}
		}
	}
}

func isFloat32(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Float32
}

// hasFastmathTag reports whether the file carries a //go:build constraint
// mentioning the fastmath tag — the opt-in relaxed-numerics tier, which
// gates against its own golden metrics instead of the default backend's.
func hasFastmathTag(f *ast.File) bool {
	for _, cg := range f.Comments {
		// Build constraints must precede the package clause.
		if cg.Pos() >= f.Package {
			break
		}
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, "//go:build") && strings.Contains(c.Text, "fastmath") {
				return true
			}
		}
	}
	return false
}
