// Package a exercises the hotdefer analyzer: defer is flagged inside
// //hot:path functions (including nested func literals constructed
// there) and passes in unannotated code.
package a

type loop struct {
	depth int
	done  func()
}

//hot:path
func (l *loop) step() {
	l.depth++
	defer l.done() // want `defer in hot function step: a defer record per call on the event path`
	l.depth--
}

//hot:path
func (l *loop) nested() {
	// The literal captures nothing (it compiles to a static function);
	// the defer inside it is still on the hot path.
	fn := func() {
		defer noop() // want `defer in hot function nested: a defer record per call on the event path`
	}
	fn()
}

func noop() {}

// cold is unannotated: defer passes.
func (l *loop) cold() {
	defer l.done()
	l.depth = 0
}
