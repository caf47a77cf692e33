package lint

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
)

// MapOrder guards against nondeterministic map iteration in deterministic
// packages. Go randomizes map range order per run, so a map-ordered loop in
// an encode path (checkpoint codecs, history assembly, metric reduction) is
// a latent byte-stability bug that no fixed-seed test reliably catches —
// it may pass a thousand runs and fail sim.TestExperimentsGolden on the next.
//
// A range over a map is accepted without annotation when the loop is
// provably order-insensitive, meaning every statement in its body is one of:
//
//   - delete(m, k)
//   - an idempotent or per-key-distinct indexed write (m2[k] = pure-expr)
//   - a commutative integer/bitset accumulation (+=, -=, ++, --, |=, &=, ^=
//     on integer types — never on floats, whose addition is order-sensitive)
//   - a min/max update (if a < b { b = a })
//   - an append to a slice that the enclosing function sorts after the loop
//     (the collect-then-sort idiom used throughout internal/dag)
//   - an if statement with a pure condition whose branches are themselves
//     order-insensitive, or a continue
//
// Everything else needs either a deterministic iteration order (sort the
// keys first) or an audited //speclint:allow maporder directive.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc: "flag range over a map in deterministic packages unless the loop body is " +
		"provably order-insensitive; map order is randomized per run, so an " +
		"order-sensitive loop breaks byte-stable results",
	Run: runMapOrder,
}

func runMapOrder(pass *Pass) error {
	if !IsDeterministicPkg(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		// Walk with an explicit stack of enclosing function bodies so the
		// collect-then-sort check can scan the statements after the loop.
		var funcs []ast.Node
		var walk func(n ast.Node) bool
		walk = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl, *ast.FuncLit:
				funcs = append(funcs, n)
				ast.Inspect(funcBody(n), walk)
				funcs = funcs[:len(funcs)-1]
				return false
			case *ast.RangeStmt:
				t := pass.TypeOf(n.X)
				if t == nil {
					return true
				}
				if _, ok := t.Underlying().(*types.Map); !ok {
					return true
				}
				var enclosing ast.Node
				if len(funcs) > 0 {
					enclosing = funcs[len(funcs)-1]
				}
				if !orderInsensitiveLoop(pass, n, enclosing) {
					pass.Reportf(n.Pos(),
						"range over map has nondeterministic order and the loop body is not provably order-insensitive; iterate over sorted keys, or annotate with //speclint:allow maporder <reason>")
				}
			}
			return true
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				funcs = append(funcs, fd)
				ast.Inspect(fd.Body, walk)
				funcs = funcs[:len(funcs)-1]
			}
		}
	}
	return nil
}

func funcBody(n ast.Node) ast.Node {
	switch n := n.(type) {
	case *ast.FuncDecl:
		return n.Body
	case *ast.FuncLit:
		return n.Body
	}
	return nil
}

// orderInsensitiveLoop reports whether the range statement's result cannot
// depend on map iteration order under the recognized patterns above.
func orderInsensitiveLoop(pass *Pass, rs *ast.RangeStmt, enclosing ast.Node) bool {
	env := &loopEnv{pass: pass, loopVars: map[types.Object]bool{}}
	for _, v := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := v.(*ast.Ident); ok && id.Name != "_" {
			if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
				env.loopVars[obj] = true
				if v == rs.Key {
					env.keyVar = obj
				}
			}
		}
	}
	if enclosing != nil {
		env.sortedAfter = sortedSliceIdents(pass, funcBody(enclosing), rs.End())
	}
	for _, s := range rs.Body.List {
		if !env.stmtInsensitive(s) {
			return false
		}
	}
	return true
}

type loopEnv struct {
	pass     *Pass
	keyVar   types.Object
	loopVars map[types.Object]bool
	// sortedAfter holds slice variables passed to a sort call after the
	// loop in the enclosing function: appends to them are order-insensitive
	// because the sort erases insertion order.
	sortedAfter map[types.Object]bool
}

func (e *loopEnv) stmtInsensitive(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.AssignStmt:
		return e.assignInsensitive(s)
	case *ast.IncDecStmt:
		return isIntegerType(e.pass.TypeOf(s.X))
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok {
			return false
		}
		b, ok := e.pass.TypesInfo.Uses[id].(*types.Builtin)
		return ok && b.Name() == "delete"
	case *ast.IfStmt:
		if s.Init != nil || !e.pureExpr(s.Cond) {
			return false
		}
		if e.isMinMaxUpdate(s) {
			return true
		}
		for _, b := range s.Body.List {
			if !e.stmtInsensitive(b) {
				return false
			}
		}
		if s.Else != nil {
			return e.stmtInsensitive(s.Else)
		}
		return true
	case *ast.BlockStmt:
		for _, b := range s.List {
			if !e.stmtInsensitive(b) {
				return false
			}
		}
		return true
	case *ast.BranchStmt:
		// break/goto make the set of visited keys order-dependent.
		return s.Tok == token.CONTINUE
	}
	return false
}

// assignInsensitive recognizes the commutative/idempotent assignment forms.
func (e *loopEnv) assignInsensitive(s *ast.AssignStmt) bool {
	switch s.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
		// Commutative and associative only over integers: float addition
		// rounds per step, so its result depends on iteration order.
		return len(s.Lhs) == 1 && isIntegerType(e.pass.TypeOf(s.Lhs[0])) && e.pureExpr(s.Rhs[0])
	case token.ASSIGN, token.DEFINE:
		if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
			return false
		}
		lhs, rhs := s.Lhs[0], s.Rhs[0]
		// x = append(x, pure...) where x is sorted after the loop.
		if call, ok := rhs.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok {
				if b, ok := e.pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
					target, ok := lhs.(*ast.Ident)
					if !ok || len(call.Args) == 0 || !sameIdent(e.pass, call.Args[0], target) {
						return false
					}
					obj := e.pass.TypesInfo.ObjectOf(target)
					if obj == nil || !e.sortedAfter[obj] {
						return false
					}
					for _, a := range call.Args[1:] {
						if !e.pureExpr(a) {
							return false
						}
					}
					return true
				}
			}
		}
		// dst[i] = pure-expr: per-key-distinct when the index involves the
		// key variable (distinct keys write distinct slots); idempotent when
		// the written value involves no loop variable (collisions overwrite
		// with the same value).
		if ix, ok := lhs.(*ast.IndexExpr); ok {
			if !e.pureExpr(ix.Index) || !e.pureExpr(rhs) {
				return false
			}
			if e.keyVar != nil && e.refersTo(ix.Index, e.keyVar) {
				return true
			}
			return !e.refersToAnyLoopVar(rhs)
		}
	}
	return false
}

// isMinMaxUpdate matches `if a OP b { b = a }` where OP is an ordering
// comparison between exactly the assignment's two operands: b converges to
// the extremum of the a's regardless of visit order.
func (e *loopEnv) isMinMaxUpdate(s *ast.IfStmt) bool {
	cond, ok := s.Cond.(*ast.BinaryExpr)
	if !ok {
		return false
	}
	switch cond.Op {
	case token.LSS, token.GTR, token.LEQ, token.GEQ:
	default:
		return false
	}
	if len(s.Body.List) != 1 {
		return false
	}
	asg, ok := s.Body.List[0].(*ast.AssignStmt)
	if !ok || asg.Tok != token.ASSIGN || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
		return false
	}
	lhs, rhs := exprString(asg.Lhs[0]), exprString(asg.Rhs[0])
	x, y := exprString(cond.X), exprString(cond.Y)
	return (lhs == x && rhs == y) || (lhs == y && rhs == x)
}

// pureExpr reports whether evaluating the expression has no side effects
// and no dependence on anything a loop iteration could mutate indirectly:
// identifiers, literals, field/index reads, arithmetic, len/cap, and
// composite literals only.
func (e *loopEnv) pureExpr(x ast.Expr) bool {
	pure := true
	ast.Inspect(x, func(n ast.Node) bool {
		switch n := n.(type) {
		case nil, *ast.Ident, *ast.BasicLit, *ast.SelectorExpr, *ast.IndexExpr,
			*ast.ParenExpr, *ast.BinaryExpr, *ast.StarExpr, *ast.CompositeLit,
			*ast.KeyValueExpr, *ast.ArrayType, *ast.MapType:
			return true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW { // channel receive: a side effect
				pure = false
			}
			return pure
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok {
				if b, ok := e.pass.TypesInfo.Uses[id].(*types.Builtin); ok {
					switch b.Name() {
					case "len", "cap", "min", "max":
						return true
					}
				}
				// Type conversions (float64(x), ID(i)) are pure.
				if _, ok := e.pass.TypesInfo.Uses[id].(*types.TypeName); ok {
					return true
				}
			}
			pure = false
			return false
		default:
			pure = false
			return false
		}
	})
	return pure
}

func (e *loopEnv) refersTo(x ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(x, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && e.pass.TypesInfo.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}

func (e *loopEnv) refersToAnyLoopVar(x ast.Expr) bool {
	for obj := range e.loopVars {
		if e.refersTo(x, obj) {
			return true
		}
	}
	return false
}

// sortedSliceIdents scans the function body for sort calls positioned after
// the loop and returns the objects of the slice variables they sort.
func sortedSliceIdents(pass *Pass, body ast.Node, after token.Pos) map[types.Object]bool {
	out := map[types.Object]bool{}
	if body == nil {
		return out
	}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < after || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[sel.Sel]
		if obj == nil || obj.Pkg() == nil {
			return true
		}
		switch obj.Pkg().Path() {
		case "sort", "slices":
		default:
			return true
		}
		if arg, ok := call.Args[0].(*ast.Ident); ok {
			if o := pass.TypesInfo.ObjectOf(arg); o != nil {
				out[o] = true
			}
		}
		return true
	})
	return out
}

func sameIdent(pass *Pass, a ast.Expr, b *ast.Ident) bool {
	ai, ok := a.(*ast.Ident)
	if !ok {
		return false
	}
	ao, bo := pass.TypesInfo.ObjectOf(ai), pass.TypesInfo.ObjectOf(b)
	return ao != nil && ao == bo
}

func isIntegerType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

func exprString(x ast.Expr) string {
	var buf bytes.Buffer
	_ = printer.Fprint(&buf, token.NewFileSet(), x)
	return buf.String()
}
