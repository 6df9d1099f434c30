package escape

import (
	"errors"
	"strings"
	"testing"

	"dcqcn/internal/escape/testdata/hot"
)

// evidenceKind says which gate owns an evidence row's construct.
type evidenceKind int

const (
	// escapes: a retired hotalloc/hotchain construct whose value reaches
	// the heap. The escape audit must name the function.
	escapes evidenceKind = iota
	// stack: the same construct kept on the stack. The audit reports
	// nothing and the function allocates nothing, so flagging it was a
	// false positive.
	stack
	// retained: a construct hotalloc still flags. It allocates inside
	// runtime or library code and the audit reports nothing, so the AST
	// rule is its only gate.
	retained
)

var (
	errDrop = errors.New("link down")
	long    = strings.Repeat("x", 40)
	nop     = func(int) {}
	vals    = []int{1, 2, 3, 4, 5, 6, 7, 8}
)

// evidence maps every construct the hot-path rules ever flagged to the
// gate that owns it now. fn names the function in testdata/hot; run,
// when set, calls it once for AllocsPerRun.
var evidence = []struct {
	construct string
	fn        string
	kind      evidenceKind
	run       func()
}{
	{"&T{} composite literal", "AddrLitEscapes", escapes, nil},
	{"&T{} composite literal", "AddrLitStack", stack, func() { hot.AddrLitStack(7) }},
	{"slice literal", "SliceLitEscapes", escapes, nil},
	{"slice literal", "SliceLitStack", stack, func() { hot.SliceLitStack(1, 2) }},
	{"conversion to interface", "IfaceConvEscapes", escapes, nil},
	{"conversion to interface", "IfaceConvStack", stack, func() { hot.IfaceConvStack(hot.Box{V: 300, W: 400}) }},
	{"boxing into interface parameter", "BoxParamEscapes", escapes, nil},
	{"boxing into interface parameter", "BoxParamStack", stack, func() { hot.BoxParamStack(hot.Box{V: 300, W: 400}) }},
	{"boxing into ...any", "BoxVariadicEscapes", escapes, nil},
	{"boxing into ...any", "BoxVariadicStack", stack, func() { hot.BoxVariadicStack(hot.Box{V: 300, W: 400}) }},
	{"capturing closure", "ClosureEscapes", escapes, nil},
	{"capturing closure", "ClosureStack", stack, func() { hot.ClosureStack(300) }},
	{"closure capturing a loop variable", "LoopClosureEscapes", escapes, nil},
	{"closure capturing a loop variable", "LoopClosureStack", stack, func() { hot.LoopClosureStack(vals) }},
	{"hooks.Chain", "ChainEscapes", escapes, nil},
	{"hooks.Chain via a subscription method", "SubscribeEscapes", escapes, nil},
	{"hooks.Chain", "ChainStack", stack, func() { hot.ChainStack(nop, nop, 1) }},
	{"append growing a bare local slice", "AppendGrows", retained, func() { hot.AppendGrows(20) }},
	{"append growing a literal-initialised local", "AppendGrowsLiteral", retained, func() { hot.AppendGrowsLiteral(1, 2, 20) }},
	{"map literal", "MapLit", retained, func() { hot.MapLit(20) }},
	{"string concatenation", "Concat", retained, func() { hot.Concat(long, long) }},
	{"fmt formatting", "Format", retained, func() { hot.Format(errDrop) }},
}

// TestEvidenceEscapeAudit is the compile-time half of the evidence: the
// escape audit names every escaping form and stays silent on the stack
// and retained forms.
func TestEvidenceEscapeAudit(t *testing.T) {
	const pkg = "dcqcn/internal/escape/testdata/hot"
	got, err := Analyze("../..", []string{pkg})
	if err != nil {
		t.Fatal(err)
	}
	sites := make(map[string][]string)
	for _, s := range got.Sites {
		if s.Pkg != pkg {
			t.Errorf("site outside the analyzed package: %+v", s)
		}
		sites[s.Func] = append(sites[s.Func], s.Msg)
	}
	for _, e := range evidence {
		reported := len(sites[e.fn]) > 0
		switch {
		case e.kind == escapes && !reported:
			t.Errorf("%s (%s): escaping form not reported by the escape audit", e.construct, e.fn)
		case e.kind != escapes && reported:
			t.Errorf("%s (%s): audit reports %q for a form that should not escape", e.construct, e.fn, sites[e.fn])
		}
	}
}
