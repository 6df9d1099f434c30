package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"dcqcn/internal/lint/analysis"
	"dcqcn/internal/lint/callgraph"
)

// Hookpassive enforces the passivity contract hooks.Chain documents:
// subscribers composed onto observation hooks through hooks.Chain*
// observe the simulation, they do not steer it. A subscriber that
// transitively writes an //acct: counter, schedules an event, or
// mutates model state makes model behaviour depend on which observers
// happen to be attached — the flight recorder's presence would change
// digests. The analyzer resolves the subscriber argument of every chain
// registration to its call-graph node and flags the forbidden
// transitive effects with the witness chain down to the primitive site.
// A subscriber that cannot be resolved statically (a function-valued
// expression that is not a literal, named function, or method value)
// is reported as unverifiable.
var Hookpassive = &analysis.Analyzer{
	Name: "hookpassive",
	Doc: "hook subscribers (hooks.Chain*) must stay passive: " +
		"no transitive //acct: writes, event scheduling, or model-state mutation",
	Run: runHookpassive,
}

// hookForbidden are the effects that make a hook subscriber active.
const hookForbidden = callgraph.WritesAcctField | callgraph.SchedulesEvent | callgraph.WritesModelState

func runHookpassive(pass *analysis.Pass) error {
	graph := graphFor(pass)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sub := subscriberArg(pass, call); sub != nil {
					checkSubscriber(pass, graph, f, sub)
				}
			}
			return true
		})
	}
	return nil
}

// subscriberArg returns the subscriber expression of a hook
// registration call — the last argument of hooks.Chain*, as in
// p.OnRx = hooks.Chain(p.OnRx, sub) — or nil if the call is not one.
func subscriberArg(pass *analysis.Pass, call *ast.CallExpr) ast.Expr {
	fun := ast.Unparen(call.Fun)
	// Strip explicit generic instantiation (hooks.Chain3[int, int, int]).
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(ix.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(ix.X)
	}
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok || !strings.HasPrefix(sel.Sel.Name, "Chain") || len(call.Args) != 2 {
		return nil
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Name() != "hooks" {
		return nil
	}
	return call.Args[1]
}

func checkSubscriber(pass *analysis.Pass, graph *callgraph.Graph, file *ast.File, sub ast.Expr) {
	node := graph.ResolveFunc(pass.TypesInfo, sub)
	if node == nil {
		cgReport(pass, file, sub,
			"hook subscriber cannot be resolved statically, so its passivity is unverified; pass a literal or named function, or waive with %s <reason>",
			cgAllowDirective)
		return
	}
	viol := node.Effects() & hookForbidden
	if viol == 0 {
		return
	}
	// One report per subscriber: the lowest set bit is the most specific
	// charge (an //acct: write also counts as a model-state write).
	bit := viol & -viol
	cgReport(pass, file, sub,
		"hook subscriber %s %s (%s): subscribers must stay passive or attaching an observer changes model behaviour",
		node, bit.Describe(), graph.Describe(node, bit))
}
