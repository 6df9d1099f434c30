package lint

import (
	"go/ast"

	"dcqcn/internal/lint/analysis"
)

// Hotdefer keeps defer out of //hot:path functions. A defer costs a
// defer-record push and an epilogue check per call even in the
// open-coded fast path, and a deferred closure capturing state
// allocates on top; at millions of events per simulated second that is
// measurable scheduler overhead for what hot functions — straight-line
// queue and transmit code — never need: they have single exit points
// and no resources to unwind. Genuinely exceptional cleanup is waived
// per package in lint.json, with a reason.
var Hotdefer = &analysis.Analyzer{
	Name: "hotdefer",
	Doc:  "forbid defer in //hot:path functions; per-event defer records are scheduler overhead the hot loop cannot afford",
	Run:  runHotdefer,
}

func runHotdefer(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, fd := range hotFuncs(f) {
			name := fd.Name.Name
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				// Defer inside a nested func literal belongs to the
				// literal's own frame, but the literal still runs on the
				// hot path when constructed here — flag those too.
				if d, ok := n.(*ast.DeferStmt); ok {
					pass.Reportf(d.Pos(),
						"defer in hot function %s: a defer record per call on the event path; restructure to a direct call", name)
				}
				return true
			})
		}
	}
	return nil
}
