// Package simtest provides test doubles shared by the unit tests of the
// protocol packages: a manually advanced Clock implementation compatible
// with core.Clock.
package simtest

import (
	"dcqcn/internal/eventq"
	"dcqcn/internal/simtime"
)

// Clock is a manual test clock whose timers live on an event queue, so
// they fire in the engine's order: by time, then in arming order. The
// zero value starts at time 0.
type Clock struct {
	now simtime.Time
	q   eventq.Queue
}

// Now returns the current time.
func (c *Clock) Now() simtime.Time { return c.now }

// After schedules fn once, d from now, and returns a cancel function.
func (c *Clock) After(d simtime.Duration, fn func()) func() {
	h := c.q.Push(c.now.Add(d), fn)
	return func() { c.q.Cancel(h) }
}

// Advance moves the clock forward by d, firing due timers in order.
func (c *Clock) Advance(d simtime.Duration) {
	target := c.now.Add(d)
	for {
		e := c.q.Peek()
		if e == nil || e.At > target {
			break
		}
		c.q.Pop()
		at, fn := e.At, e.Fn
		c.q.Release(e)
		c.now = at
		fn()
	}
	c.now = target
}

// Pending returns the number of live timers.
func (c *Clock) Pending() int { return c.q.Len() }
