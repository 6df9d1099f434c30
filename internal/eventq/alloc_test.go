//go:build !race

// Allocation-budget test for the hot-path contract (DESIGN §12): the
// steady-state push/pop cycle of the event queue is pinned to exactly
// one heap allocation — the Event header PushKeyed creates, the escape
// escape.golden records for Queue.PushKeyed. This test pins how many
// times that escape happens per operation; the escape audit pins where.
// The race detector perturbs allocation counts, so the budget only runs
// in non-race builds; `make race` still compiles and runs everything
// else here.

package eventq

import (
	"testing"

	"dcqcn/internal/simtime"
)

func TestAllocBudgetPushPop(t *testing.T) {
	var q Queue
	fn := func() {}
	// Warm the heap's backing array past the sizes the measured cycle
	// will see, so slice growth never lands inside the measurement.
	for i := 0; i < 1024; i++ {
		q.Push(simtime.Time(i), fn)
	}
	for q.Len() > 512 {
		q.Pop()
	}

	base := simtime.Time(1 << 30)
	i := 0
	avg := testing.AllocsPerRun(2000, func() {
		i++
		q.Push(base.Add(simtime.Duration(i)), fn)
		q.Pop()
	})
	if avg != 1 {
		t.Errorf("push/pop cycle allocates %.2f objects/op, budget is exactly 1 (the Event header)", avg)
	}
}
