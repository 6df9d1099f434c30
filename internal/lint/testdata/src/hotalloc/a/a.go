// Package a exercises the hotalloc analyzer: the allocations the
// compiler's escape analysis never reports — growing appends, map
// literals, string concatenation and fmt formatting — are flagged only
// inside //hot:path-annotated functions, and panic arguments are
// exempt (the panic path is cold by definition). Heap escapes (&T{},
// slice literals, interface boxing, capturing closures) are the escape
// audit's; internal/escape/testdata/hot holds their evidence.
package a

import "fmt"

type event struct {
	at int
	fn func()
}

type queue struct {
	heap []*event
	name string
}

// push is hot but appends only to a struct field: the owner's amortized
// growth, not flagged. The &event{...} is a heap escape, the escape
// audit's to report.
//
//hot:path
func (q *queue) push(at int, fn func()) *event {
	e := &event{at: at, fn: fn}
	q.heap = append(q.heap, e)
	return e
}

//hot:path
func (q *queue) collect(n int) []int {
	var out []int
	for i := 0; i < n; i++ {
		out = append(out, i) // want `append grows local slice out declared without capacity in hot function collect`
	}
	seeded := make([]int, 0, n)
	seeded = append(seeded, out...) // preallocated: passes
	empty := []int{}
	empty = append(empty, seeded...) // want `append grows local slice empty declared without capacity in hot function collect`
	return empty
}

//hot:path
func (q *queue) grow(a, b int) int {
	pair := []int{a, b}      // a slice literal that stays on the stack: nothing to report
	pair = append(pair, a+b) // want `append grows local slice pair declared without capacity in hot function grow`
	var trio = []int{a, b, a + b}
	trio = append(trio, a*b) // want `append grows local slice trio declared without capacity in hot function grow`
	var sized = make([]int, 0, 4)
	sized = append(sized, a) // preallocated: passes
	return len(pair) + len(trio) + len(sized)
}

//hot:path
func (q *queue) format(n int) string {
	label := fmt.Sprintf("ev-%d", n) // want `fmt.Sprintf in hot function format formats through reflection and allocates per call`
	label = label + q.name           // want `string concatenation in hot function format allocates a new string per call`
	const prefix = "q-" + "static"   // constant folded: passes
	return prefix + label            // want `string concatenation in hot function format allocates a new string per call`
}

//hot:path
func (q *queue) literals(n int) {
	index := map[string]int{} // want `map literal in hot function literals allocates per call`
	_ = index
}

//hot:path
func (q *queue) panics(at int) {
	if at < 0 {
		panic(fmt.Sprintf("negative time %d", at)) // panic argument: cold path, passes
	}
}

// cold has no annotation: the same constructs pass unreported.
func (q *queue) cold(n int) string {
	var out []int
	out = append(out, n)
	_ = map[int]int{n: n}
	return fmt.Sprintf("ev-%d", n) + q.name
}
