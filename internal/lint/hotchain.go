package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"dcqcn/internal/lint/analysis"
)

// Hotchain keeps hook installation out of //hot:path functions.
// Observers subscribe once, at attach time; assigning an On* hook field
// from per-event code — directly or through hooks.Chain* — either
// clobbers the observers wired at attach or grows the chain by one
// closure per event, so every later event walks an ever-longer call
// chain. The rule is about behaviour, not allocation: the closure a
// per-event hooks.Chain builds is a heap escape, and the escape audit
// (internal/escape) reports it as one.
var Hotchain = &analysis.Analyzer{
	Name: "hotchain",
	Doc: "forbid installing On* hook fields (directly or via hooks.Chain*) in //hot:path functions; " +
		"hooks are wired at attach time, never per event",
	Run: runHotchain,
}

func runHotchain(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, fd := range hotFuncs(f) {
			name := fd.Name.Name
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if as, ok := n.(*ast.AssignStmt); ok {
					for _, lhs := range as.Lhs {
						checkHookInstall(pass, as, lhs, name)
					}
				}
				return true
			})
		}
	}
	return nil
}

// checkHookInstall flags assignments to On*-named func-typed fields —
// installing or replacing a hook from event-path code races with the
// chained observers wired at attach time.
func checkHookInstall(pass *analysis.Pass, at ast.Node, lhs ast.Expr, name string) {
	sel, ok := lhs.(*ast.SelectorExpr)
	if !ok || !strings.HasPrefix(sel.Sel.Name, "On") {
		return
	}
	v, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Var)
	if !ok || !v.IsField() {
		return
	}
	if _, isFunc := v.Type().Underlying().(*types.Signature); !isFunc {
		return
	}
	pass.Reportf(at.Pos(),
		"hook field %s installed in hot function %s: hooks are wired once at attach time, not per event",
		sel.Sel.Name, name)
}
