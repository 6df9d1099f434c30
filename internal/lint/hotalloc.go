package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"dcqcn/internal/lint/analysis"
)

// Hotalloc is the AST half of the hot-path allocation contract: inside
// //hot:path-annotated functions it flags the allocations that happen
// inside runtime or library calls, which the compiler's -gcflags=-m
// output never lists — appends that grow unpreallocated local slices
// (runtime.growslice), map literals (map growth in runtime.mapassign),
// string concatenation (runtime.concatstrings) and fmt formatting.
// Heap escapes (composite literals behind &, slice literals, interface
// boxing, capturing closures) are the escape audit's (internal/escape,
// escape.golden): it reports each one exactly when the value escapes,
// and a value that does not escape costs nothing. Panic arguments are
// exempt because the panic path is terminal and cold. The analyzer also
// guards the designation itself: a package in HotPackages with no
// //hot:path annotations at all is reported, so the contract cannot rot
// away one deleted comment at a time.
var Hotalloc = &analysis.Analyzer{
	Name: "hotalloc",
	Doc: "forbid per-event allocation the escape audit cannot see in //hot:path functions: " +
		"appends growing unpreallocated local slices, map literals, string concatenation and fmt formatting",
	Run: runHotalloc,
}

func runHotalloc(pass *analysis.Pass) error {
	annotated := 0
	for _, f := range pass.Files {
		for _, fd := range hotFuncs(f) {
			annotated++
			checkHotallocFunc(pass, fd)
		}
	}
	if annotated == 0 && IsHotPackage(pass.Pkg.Path()) && len(pass.Files) > 0 {
		pass.Reportf(pass.Files[0].Name.Pos(),
			"designated hot package %s has no //hot:path annotations; the allocation contract requires its per-event functions to be marked",
			pass.Pkg.Path())
	}
	return nil
}

// fmtAllocFuncs are the fmt functions that build a new string or byte
// slice per call. (Fprintf writes to an io.Writer; the escape audit
// reports the operands it boxes.)
var fmtAllocFuncs = map[string]bool{
	"Sprintf": true, "Sprint": true, "Sprintln": true,
	"Errorf": true, "Appendf": true, "Append": true, "Appendln": true,
}

func checkHotallocFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	cold := panicArgs(fd.Body)
	bare := bareLocalSlices(pass, fd)
	name := fd.Name.Name

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil || inPanicArg(cold, n) {
			return true
		}
		switch x := n.(type) {
		case *ast.CompositeLit:
			if tv, ok := pass.TypesInfo.Types[x]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					pass.Reportf(x.Pos(), "map literal in hot function %s allocates per call", name)
				}
			}
		case *ast.CallExpr:
			checkHotallocCall(pass, x, name, bare)
		case *ast.BinaryExpr:
			if x.Op == token.ADD {
				tv, ok := pass.TypesInfo.Types[x]
				if ok && tv.Value == nil && isString(tv.Type) {
					pass.Reportf(x.Pos(),
						"string concatenation in hot function %s allocates a new string per call", name)
				}
			}
		}
		return true
	})
}

// checkHotallocCall handles the call-shaped rules: appends growing bare
// local slices and fmt formatting.
func checkHotallocCall(pass *analysis.Pass, call *ast.CallExpr, name string, bare map[types.Object]bool) {
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin && b.Name() == "append" && len(call.Args) > 0 {
			if root := rootIdent(call.Args[0]); root != nil {
				if obj := pass.TypesInfo.Uses[root]; obj != nil && bare[obj] {
					pass.Reportf(call.Pos(),
						"append grows local slice %s declared without capacity in hot function %s; preallocate with make or reuse a buffer",
						root.Name, name)
				}
			}
		}
		return
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if pn := pkgNameOf(pass.TypesInfo, sel.X); pn != nil && pn.Imported().Path() == "fmt" && fmtAllocFuncs[sel.Sel.Name] {
			pass.Reportf(call.Pos(),
				"fmt.%s in hot function %s formats through reflection and allocates per call", sel.Sel.Name, name)
		}
	}
}

// bareLocalSlices collects the objects of slices declared inside fd
// with no preallocated capacity: `var s []T`, `s := []T{}`,
// `s := []T{a, b}` and `var s = []T{a, b}`. Appending to these grows them in runtime.growslice,
// which the escape audit never reports — a slice literal that stays on
// the stack still reallocates on the heap the first time it outgrows
// its elements. Appending to parameters, fields or make()-initialized
// locals is the owner's preallocation contract and is not flagged.
func bareLocalSlices(pass *analysis.Pass, fd *ast.FuncDecl) map[types.Object]bool {
	bare := make(map[types.Object]bool)
	mark := func(id *ast.Ident) {
		if obj := pass.TypesInfo.Defs[id]; obj != nil {
			if _, ok := obj.Type().Underlying().(*types.Slice); ok {
				bare[obj] = true
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.DeclStmt:
			gd, ok := x.Decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, id := range vs.Names {
					if len(vs.Values) == 0 {
						mark(id)
					} else if i < len(vs.Values) {
						if _, ok := vs.Values[i].(*ast.CompositeLit); ok {
							mark(id)
						}
					}
				}
			}
		case *ast.AssignStmt:
			if x.Tok != token.DEFINE || len(x.Lhs) != len(x.Rhs) {
				return true
			}
			for i, lhs := range x.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				if _, ok := x.Rhs[i].(*ast.CompositeLit); ok {
					mark(id)
				}
			}
		}
		return true
	})
	return bare
}

// isString reports whether t's underlying type is a string kind.
func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
