//go:build !race

// Allocation-budget test for the hot-path contract (DESIGN §12): the
// engine's schedule/fire/cancel cycle allocates nothing once the event
// queue has warmed. The run loop releases each header before calling
// its callback and Cancel releases the cancelled one, so every schedule
// reuses a pooled header; callers hand in pre-bound callbacks. Race
// builds skip the budget (the detector perturbs counts).

package engine

import (
	"testing"

	"dcqcn/internal/simtime"
)

func TestAllocBudgetScheduleFireCancel(t *testing.T) {
	s := New(1).Model()
	fired := 0
	fire := func() { fired++ }
	cycle := func() {
		s.After(simtime.Microsecond, fire)
		s.Cancel(s.After(2*simtime.Microsecond, fire))
		s.AtArrival(s.Now().Add(simtime.Microsecond), 1, uint64(fired), fire)
		s.RunAll()
	}
	cycle() // warm the heap and the header free list

	avg := testing.AllocsPerRun(1000, cycle)
	if avg != 0 {
		t.Errorf("schedule/fire/cancel cycle allocates %.2f objects/op, budget is 0", avg)
	}
	if fired == 0 {
		t.Fatal("no events fired — the measurement exercised nothing")
	}
}
