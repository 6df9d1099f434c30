package main

import (
	"math/rand"
	"runtime"
	"time"

	"dcqcn/internal/core"
	"dcqcn/internal/engine"
	"dcqcn/internal/eventq"
	"dcqcn/internal/fabric"
	"dcqcn/internal/fluid"
	"dcqcn/internal/link"
	"dcqcn/internal/packet"
	"dcqcn/internal/simtime"
)

// Micro-paths: each layer's public hot function called in isolation on
// a minimal rig, timed in batches. A batch is ops calls; the reported
// figures are the median ns/op over the batches and the mean allocs/op.

// microResult is one micro-path's measurement.
type microResult struct {
	nsPerOp     float64
	allocsPerOp float64
}

// measureMicro runs batches of op (each call does ops operations) for
// about budget and returns the median ns/op and mean allocs/op. One
// unmeasured batch warms lazy state first.
func measureMicro(name string, budget time.Duration, ops int, op func(), spans *spanLog, parent int) microResult {
	op()
	var ns []float64
	var ms0, ms1 runtime.MemStats
	var mallocs, total uint64
	deadline := time.Now().Add(budget)
	for len(ns) < 5 || time.Now().Before(deadline) {
		sp := spans.begin(parent, name)
		runtime.ReadMemStats(&ms0)
		t := time.Now()
		op()
		d := time.Since(t)
		runtime.ReadMemStats(&ms1)
		spans.end(sp)
		ns = append(ns, float64(d.Nanoseconds())/float64(ops))
		mallocs += ms1.Mallocs - ms0.Mallocs
		total += uint64(ops)
	}
	return microResult{nsPerOp: median(ns), allocsPerOp: float64(mallocs) / float64(total)}
}

// eventqPushPop holds a queue at depth pending events and times one Pop
// of the earliest event plus one Push at a later time, as the engine
// does per executed event that schedules a successor.
func eventqPushPop(depth, ops int) func() {
	var q eventq.Queue
	fn := func() {}
	rng := rand.New(rand.NewSource(1))
	horizon := int64(simtime.Millisecond)
	for i := 0; i < depth; i++ {
		q.Push(simtime.Time(rng.Int63n(horizon)), fn)
	}
	return func() {
		for i := 0; i < ops; i++ {
			e := q.Pop()
			q.Push(e.At.Add(simtime.Duration(rng.Int63n(horizon))), fn)
		}
	}
}

// eventqCancel holds a queue at depth and times one Push plus the
// Cancel of the event just pushed, as a re-armed timer does.
func eventqCancel(depth, ops int) func() {
	var q eventq.Queue
	fn := func() {}
	rng := rand.New(rand.NewSource(1))
	horizon := int64(simtime.Millisecond)
	for i := 0; i < depth; i++ {
		q.Push(simtime.Time(rng.Int63n(horizon)), fn)
	}
	return func() {
		for i := 0; i < ops; i++ {
			q.Cancel(q.Push(simtime.Time(rng.Int63n(horizon)), fn))
		}
	}
}

// sink is a link.Receiver that drops what it receives.
type sink struct{}

func (sink) HandlePacket(*packet.Packet, *link.Port) {}

// linkTransmit is a two-port rig: each op enqueues one 1000-byte frame
// on port a and runs the engine until it is delivered to b.
func linkTransmit(ops int) func() {
	sim := engine.New(1)
	msim := sim.Model()
	rate := 40 * simtime.Gbps
	a := link.NewPort(msim, "a", 0, rate, sink{})
	b := link.NewPort(msim, "b", 1, rate, sink{})
	link.Connect(msim, a, b, simtime.Microsecond)
	pkt := &packet.Packet{Type: packet.Data, Size: 1000}
	return func() {
		for i := 0; i < ops; i++ {
			a.Enqueue(pkt)
			sim.RunAll()
		}
	}
}

// switchForward is a four-port star: a switch whose ports 1..3 lead to
// sink hosts; each op hands one data packet arriving on port 0 to
// Switch.HandlePacket, rotating the destination host, and runs the
// engine until the packet leaves the switch.
func switchForward(ops int) func() {
	sim := engine.New(1)
	msim := sim.Model()
	cfg := fabric.DefaultConfig()
	sw := fabric.New(msim, 1, "SW", 4, cfg)
	var pkts []*packet.Packet
	for i := 1; i < 4; i++ {
		dst := packet.NodeID(10 + i)
		host := link.NewPort(msim, "h", 0, cfg.Spec.LineRate, sink{})
		link.Connect(msim, sw.Port(i), host, simtime.Microsecond)
		sw.AddRoute(dst, i)
		pkts = append(pkts, &packet.Packet{
			Type: packet.Data, Size: 1000, Priority: 3,
			Tuple: packet.FiveTuple{Src: 2, Dst: dst, SrcPort: 7, DstPort: 8},
		})
	}
	in := sw.Port(0)
	return func() {
		for i := 0; i < ops; i++ {
			sw.HandlePacket(pkts[i%len(pkts)], in)
			sim.RunAll()
		}
	}
}

// stubClock is a core.Clock whose timers never fire on their own: the
// last armed callback is kept so a micro-path can fire it.
type stubClock struct {
	now   simtime.Time
	armed func()
}

func (c *stubClock) Now() simtime.Time { return c.now }

func (c *stubClock) After(_ simtime.Duration, fn func()) func() {
	c.armed = fn
	return c.cancel
}

func (c *stubClock) cancel() { c.armed = nil }

// rpOnCNP times RP.OnCNP: the rate cut, the alpha update and the timer
// re-arm a congestion notification costs the reaction point.
func rpOnCNP(ops int) func() {
	clock := &stubClock{}
	rp := core.NewRP(core.DefaultParams(), clock)
	return func() {
		for i := 0; i < ops; i++ {
			clock.now = clock.now.Add(simtime.Microsecond)
			rp.OnCNP()
		}
	}
}

// npOnPacket times NP.OnPacket over a stream in which every fourth
// packet is CE-marked; the CNP window timer fires every 64 packets.
func npOnPacket(ops int) func() {
	clock := &stubClock{}
	np := core.NewNP(core.DefaultParams(), clock, func() {})
	return func() {
		for i := 0; i < ops; i++ {
			np.OnPacket(i%4 == 0)
			if i%64 == 63 && clock.armed != nil {
				clock.armed()
			}
		}
	}
}

// lawStep times one fluid.Law.Step of a flow class under a constant
// marking probability at the hybrid substrate's 10 µs cadence.
func lawStep(ops int) func() {
	law := fluid.NewLaw(core.DefaultParams(), 1500)
	s := law.InitialState(law.Params.LineRate / 10)
	m := law.Delay(0.01)
	return func() {
		for i := 0; i < ops; i++ {
			law.Step(&s, m, s.RC, 1e-5)
		}
	}
}
