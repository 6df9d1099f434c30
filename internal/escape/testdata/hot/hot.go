// Package hot is the evidence for how the hot-path allocation contract
// (DESIGN.md §12) divides its gates. Every function is //hot:path, so
// the escape audit keeps its sites, and //go:noinline, so the
// allocations the tests measure are the ones the compiler decided for
// the function itself.
//
// Each construct the hotalloc/hotchain analyzers used to flag as a heap
// allocation comes in two forms: *Escapes, where the value reaches the
// heap and the escape audit names the function, and *Stack, where it
// does not and the function allocates nothing. The retained hotalloc
// constructs (growing appends, map literals, string concatenation, fmt)
// allocate inside runtime or library code, where -gcflags=-m reports no
// escape: the AST rule is their only gate.
package hot

import (
	"fmt"

	"dcqcn/internal/hooks"
)

type event struct {
	at int
	fn func()
}

// Box is a two-word value: storing it in an interface needs a copy.
type Box struct{ V, W int }

// Port carries one hook field, like link.Port.
type Port struct{ OnRx func(int) }

var (
	sinkEvent *event
	sinkInts  []int
	sinkAny   any
	sinkFunc  func() int
	sinkLoop  [4]func() int
)

//go:noinline
func keep(v any) { sinkAny = v }

//go:noinline
func keepAll(vs ...any) { sinkAny = vs[0] }

//go:noinline
func weigh(v any) int {
	if b, ok := v.(Box); ok {
		return b.V + b.W
	}
	return 0
}

//go:noinline
func weighAll(vs ...any) int {
	n := 0
	for _, v := range vs {
		n += weigh(v)
	}
	return n
}

// Composite literal behind &.

//hot:path
//go:noinline
func AddrLitEscapes(at int) { sinkEvent = &event{at: at} }

//hot:path
//go:noinline
func AddrLitStack(at int) int {
	e := &event{at: at}
	return e.at + 1
}

// Slice literal.

//hot:path
//go:noinline
func SliceLitEscapes(a, b int) { sinkInts = []int{a, b} }

//hot:path
//go:noinline
func SliceLitStack(a, b int) int {
	s := []int{a, b}
	return s[0] + s[1]
}

// Conversion to an interface type.

//hot:path
//go:noinline
func IfaceConvEscapes(b Box) { sinkAny = any(b) }

//hot:path
//go:noinline
func IfaceConvStack(b Box) int {
	x := any(b)
	return weigh(x)
}

// Boxing into an interface parameter.

//hot:path
//go:noinline
func BoxParamEscapes(b Box) { keep(b) }

//hot:path
//go:noinline
func BoxParamStack(b Box) int { return weigh(b) }

// Boxing into a variadic ...any parameter.

//hot:path
//go:noinline
func BoxVariadicEscapes(b Box) { keepAll(b) }

//hot:path
//go:noinline
func BoxVariadicStack(b Box) int { return weighAll(b, b) }

// Capturing closure.

//hot:path
//go:noinline
func ClosureEscapes(base int) { sinkFunc = func() int { return base } }

//hot:path
//go:noinline
func ClosureStack(base int) int {
	f := func() int { return base * 2 }
	return f()
}

// Closure capturing a loop variable.

//hot:path
//go:noinline
func LoopClosureEscapes(vals []int) {
	for i, v := range vals {
		sinkLoop[i%len(sinkLoop)] = func() int { return v }
	}
}

//hot:path
//go:noinline
func LoopClosureStack(vals []int) int {
	sum := 0
	for _, v := range vals {
		g := func() int { return v }
		sum += g()
	}
	return sum
}

// Hook chaining, directly and through a subscription method wrapping
// hooks.Chain. The method inlines, so its escape lands in the hot
// caller.

//hot:path
//go:noinline
func ChainEscapes(p *Port, fn func(int)) { p.OnRx = hooks.Chain(p.OnRx, fn) }

func (p *Port) subscribe(fn func(int)) { p.OnRx = hooks.Chain(p.OnRx, fn) }

//hot:path
//go:noinline
func SubscribeEscapes(p *Port, fn func(int)) { p.subscribe(fn) }

//hot:path
//go:noinline
func ChainStack(a, b func(int), v int) { hooks.Chain(a, b)(v) }

// Retained hotalloc constructs: each allocates, none is an escape.

//hot:path
//go:noinline
func AppendGrows(n int) int {
	var out []int
	for i := 0; i < n; i++ {
		out = append(out, i)
	}
	return len(out)
}

//hot:path
//go:noinline
func AppendGrowsLiteral(a, b, n int) int {
	s := []int{a, b}
	for i := 0; i < n; i++ {
		s = append(s, i)
	}
	return len(s)
}

//hot:path
//go:noinline
func MapLit(n int) int {
	m := map[int]int{}
	for i := 0; i < n; i++ {
		m[i] = i
	}
	return len(m)
}

//hot:path
//go:noinline
func Concat(a, b string) int { return len(a + b) }

// Format passes an operand that is already an interface, so there is
// no boxing to report; the formatting itself allocates the result.
//
//hot:path
//go:noinline
func Format(err error) int { return len(fmt.Sprintf("drop: %v", err)) }
