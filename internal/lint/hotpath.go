package lint

import (
	"go/ast"
	"strings"
)

// Hot-path allocation contract (DESIGN.md §12). The engine overhaul the
// roadmap plans (timing wheel, packet/event pooling) is only worth
// attempting if allocation discipline, once won, cannot silently rot.
// Functions annotated //hot:path are the per-event code — the event
// queue, the run loop, the link transmit/deliver pipeline, the switch
// forwarding pipeline, the flight recorder's record path, the cc
// reactors, the fluid/hybrid step — and each allocation decision inside
// them has exactly one gate:
//
//   - heap escapes (composite literals behind &, slice literals,
//     interface boxing, capturing closures, per-event hooks.Chain) are
//     the compiler escape audit's (internal/escape, `dcqcn-lint
//     -escape`), diffed against escape.golden, which is the single
//     record of a budgeted hot-path allocation;
//   - allocations inside runtime or library calls, which -gcflags=-m
//     never lists (growing appends, map literals, string concatenation,
//     fmt), are hotalloc's;
//   - defers (hotdefer) and per-event hook installs (hotchain) are
//     behaviour rules, not allocation rules.
//
// The AllocsPerRun budget tests in the hot packages pin the resulting
// per-operation counts. A hot-family finding is waived per package in
// lint.json, like every other analyzer's.

// hotDirective marks a function as hot-path code. It goes in the
// function's doc comment block, conventionally on its own line:
//
//	//hot:path
//	// PushKeyed schedules fn at time at ...
//	func (q *Queue) PushKeyed(...)
const hotDirective = "//hot:path"

// HotPackages are the designated hot packages: the event queue, the
// engine run loop, the link transmit pipeline, the switch forwarding
// pipeline, the flight-recorder write path, the cc reactors, and the
// fluid/hybrid integration step (which fires every 10 µs of simtime
// regardless of how many flows it models). Their per-event functions
// must carry //hot:path annotations; hotalloc reports a designated
// package that has none, so the contract cannot be silently deleted
// annotation by annotation. The escape auditor (internal/escape)
// builds exactly this list, so TestHotPackagesCoverHotFuncs requires
// every package with a //hot:path function to be on it.
var HotPackages = []string{
	"dcqcn/internal/cc",
	"dcqcn/internal/engine",
	"dcqcn/internal/eventq",
	"dcqcn/internal/fabric",
	"dcqcn/internal/link",
	"dcqcn/internal/flightrec",
	"dcqcn/internal/fluid",
	"dcqcn/internal/hybrid",
}

// IsHotPackage reports whether pkgPath is a designated hot package.
func IsHotPackage(pkgPath string) bool {
	for _, p := range HotPackages {
		if pkgPath == p {
			return true
		}
	}
	return false
}

// isHotFunc reports whether the function declaration carries the
// //hot:path directive in its doc comment block.
func isHotFunc(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == hotDirective || strings.HasPrefix(c.Text, hotDirective+" ") {
			return true
		}
	}
	return false
}

// hotFuncs returns every //hot:path-annotated function declaration in
// the file, body included.
func hotFuncs(f *ast.File) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil && isHotFunc(fd) {
			out = append(out, fd)
		}
	}
	return out
}

// panicArgs collects the subtrees that are arguments of builtin panic
// calls within root. Allocation diagnostics are waived there: a panic
// path is terminal and by definition cold, and the formatted message is
// what makes the failure debuggable.
func panicArgs(root ast.Node) []ast.Node {
	var out []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
			for _, a := range call.Args {
				out = append(out, a)
			}
		}
		return true
	})
	return out
}

// inPanicArg reports whether n lies inside one of the panic-argument
// subtrees.
func inPanicArg(args []ast.Node, n ast.Node) bool {
	for _, a := range args {
		if a.Pos() <= n.Pos() && n.End() <= a.End() {
			return true
		}
	}
	return false
}
