package lint

import (
	"go/ast"
)

// Budget enforces the goroutine-accounting contract from PR 2: all fan-out
// flows through internal/par, whose Budget caps live helper goroutines
// module-wide (nested ForEachIn callers run inline when the budget is
// exhausted, so the bound holds across engine, sweep, and DAG layers). A
// naked go statement anywhere else escapes that accounting and reintroduces
// the ~6×NumCPU oversubscription the budget was built to end — or worse, an
// unbounded leak under the multi-run schedulers the roadmap adds next.
var Budget = &Analyzer{
	Name: "budget",
	Doc: "forbid naked go statements outside internal/par; spawn through the shared " +
		"par.Budget (ForEachIn/Spawn) so goroutine fan-out stays bounded",
	Run: runBudget,
}

func runBudget(pass *Pass) error {
	if pathHasSuffix(pass.Pkg.Path(), "internal/par") {
		return nil // the one package allowed to spawn: it implements the budget
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(g.Pos(),
					"naked go statement outside internal/par: spawn through the shared par.Budget (par.ForEachIn, Budget.Spawn) so goroutine fan-out stays within the accounting bound")
			}
			return true
		})
	}
	return nil
}
