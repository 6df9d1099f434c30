// Package parallel shards one simulation across cores.
//
// A finished topology is partitioned into shards (internal/topology's
// Partition keeps pods together and puts every host on its ToR's shard),
// each shard's switches and NICs are rebound onto a private simulator
// core, and the cores advance together under a conservative synchronization
// protocol whose lookahead is the minimum propagation delay of the links
// the partition cut: a shard executing events up to time T can only
// influence another shard at T + lookahead or later, so all shards may
// safely run a window of that width in parallel.
//
// The result is not "approximately the same simulation, faster" — it is
// the same simulation. Three mechanisms make sharded and sequential runs
// bit-identical:
//
//   - Equal-time event order is mode-independent (internal/eventq):
//     control events first, then link arrivals keyed by the intrinsic
//     (direction ID, frame sequence) pair, then each component's local
//     events. None of those keys mention a queue-global counter, so it
//     does not matter whether one core or eight executed the events.
//
//   - Control events (scenario tickers, measurement probes, fault
//     transitions) run stop-the-world: the coordinator halts every shard
//     at the control timestamp, advances the shard clocks to it, and runs
//     the control core alone — so a probe reads exactly the model state a
//     sequential run would show it, and fault writes are plain writes.
//
//   - Frames crossing a cut link travel as timestamped messages, injected
//     into the destination's in-flight FIFO and queue at the window
//     barrier through the same Link.Inject a sequential run uses, with
//     the same (time, direction, sequence) key, and the run digest is
//     reconstructed on the control core by merging per-shard
//     executed-event streams in global time order (equal-time fold
//     order cannot change the digest — see engine.Digest).
//
// The coordinator runs shard 0's window itself and hands every other
// shard's window to a worker goroutine through an atomic generation
// counter; the worker reports completion through a second one. Windows
// hold about twenty events, too little work to pay for parking and
// waking a goroutine per handoff, as a channel would. Waiters spin briefly when every shard
// can hold a core (len(shards) <= GOMAXPROCS) and otherwise yield the
// processor between polls. The digest fold of a window is deferred to
// the next window, where shard 1's worker does it while the coordinator
// runs shard 0; the coordinator folds any pending window itself before a
// control turn and before Run returns, so Digest and Events are exact
// wherever scenario code can read them.
//
// Sharding declines quietly (the run stays sequential) when the effective
// partition has fewer than two shards — a star topology cannot split —
// or when a global observer that inspects every event is active: the
// invariant auditor build or an armed flight recorder.
package parallel

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"dcqcn/internal/engine"
	"dcqcn/internal/flightrec"
	"dcqcn/internal/invariant"
	"dcqcn/internal/link"
	"dcqcn/internal/packet"
	"dcqcn/internal/simtime"
	"dcqcn/internal/topology"
)

func init() { topology.Sharder = Shard }

// msg is one cross-shard frame: the packet, the link direction it
// travels, and the absolute arrival time and frame sequence number it
// must be injected under on the destination core.
type msg struct {
	at  simtime.Time
	seq uint64
	pkt *packet.Packet
	out *outboundDir
}

// shard is one partition of the network on its own core. Shard 0 is run
// by the coordinator itself; every other shard by a worker goroutine
// that lives for one Run call. The coordinator hands a window to a
// worker by publishing the horizon and bumping gen; the worker answers
// by storing the same generation into done. Those atomic stores and
// loads are also the happens-before edges that hand the shard's memory
// back and forth between worker and coordinator.
type shard struct {
	sim *engine.Sim // the shard core's control handle
	// executed collects the timestamps of events run in the current
	// window, in execution (= time) order. After the barrier it swaps
	// with pending, which holds the previous window's stream until it is
	// folded into the digest (see coord.fold).
	executed, pending []simtime.Time
	// outbox collects cross-shard arrivals generated in the current
	// window. Only this shard's runner appends; the coordinator drains
	// it between windows.
	outbox []msg
	gen    atomic.Uint64 // last window handed out
	done   atomic.Uint64 // last window finished
}

// outboundDir is the link.Transport for one direction of a cut link: it
// lives on the sending shard and queues frames for the destination.
type outboundDir struct {
	src  *shard
	link *link.Link
	dir  int
}

func (o *outboundDir) Send(at simtime.Time, seq uint64, pkt *packet.Packet) {
	o.src.outbox = append(o.src.outbox, msg{at: at, seq: seq, pkt: pkt, out: o})
}

// Stats counts the coordinator's work since the network was sharded.
type Stats struct {
	// Windows is the number of conservative windows run in parallel.
	Windows uint64
	// ControlTurns is the number of stop-the-world control turns.
	ControlTurns uint64
	// Events is the number of events folded into the control core's
	// digest: every shard-executed event plus every control event. It
	// equals Digest().Events whenever scenario code can read either.
	Events uint64
}

// WindowStats returns the coordinator statistics of a sharded network's
// control core, and false when the simulation runs sequentially.
func WindowStats(s *engine.Sim) (Stats, bool) {
	c, ok := s.Runner().(*coord)
	if !ok {
		return Stats{}, false
	}
	return c.stats, true
}

// coord drives the shards through alternating stop-the-world control
// turns and parallel conservative windows. It is installed as the control
// core's runner, so net.Sim.Run(until) transparently runs sharded.
type coord struct {
	ctrl      *engine.Sim
	shards    []*shard
	lookahead simtime.Duration
	mergeIdx  []int
	// horizon is the bound of the window being handed out; it is written
	// before the gen stores that publish it.
	horizon simtime.Time
	gen     uint64 // windows handed out in the current Run call
	// spin lets waiters busy-wait before yielding. It pays only when
	// every shard can hold a processor of its own; oversubscribed, a
	// spinning waiter burns the processor the goroutine it waits for
	// needs.
	spin bool
	// stop retires the workers: set before the final gen bump.
	stop atomic.Bool
	// pending is set when the shards' pending buffers hold a window not
	// yet folded into the digest.
	pending bool
	stats   Stats
}

// spinLimit bounds how many times a waiter polls before it starts
// yielding its processor between polls.
const spinLimit = 1 << 12

// Shard partitions a freshly built network across up to k cores. It is
// registered as topology.Sharder and called from the topology builders
// when Options.Shards > 1; call it directly only in tests. Sharding must
// happen before any event is scheduled.
func Shard(n *topology.Network, k int) {
	if invariant.Enabled || flightrec.Armed() {
		// Global event observers audit or record every event in one
		// stream; run sequentially rather than perturb them.
		return
	}
	p := n.Partition(k)
	if p.Shards < 2 {
		return
	}
	if n.Sim.Pending() != 0 {
		panic("parallel: cannot shard a network with scheduled events — shard at build time")
	}
	c := &coord{ctrl: n.Sim, mergeIdx: make([]int, p.Shards)}
	for s := 0; s < p.Shards; s++ {
		core := engine.New(n.Sim.Seed())
		// Preallocate the per-window buffers: executed and pending are
		// reused across windows by the barrier swap and outbox by the
		// barrier drain, so seeding real capacity here keeps the first
		// windows from growing them with repeated reallocation on the
		// event path.
		sh := &shard{
			sim:      core,
			executed: make([]simtime.Time, 0, 4096),
			pending:  make([]simtime.Time, 0, 4096),
			outbox:   make([]msg, 0, 256),
		}
		c.shards = append(c.shards, sh)
		msim := core.Model()
		for _, sw := range n.ShardSwitches(p, s) {
			sw.Rebind(msim)
		}
		for _, h := range n.ShardHosts(p, s) {
			h.Rebind(msim)
		}
	}
	c.lookahead = simtime.Forever.Sub(0)
	for _, cl := range p.Cross {
		d := cl.Link.Delay()
		if d <= 0 {
			panic(fmt.Sprintf("parallel: cut link has zero propagation delay — no lookahead (shards %d/%d)", cl.A, cl.B))
		}
		if d < c.lookahead {
			c.lookahead = d
		}
		// Direction 0 carries frames from endpoint a (shard cl.A) to
		// endpoint b (shard cl.B); direction 1 the reverse.
		cl.Link.SetTransport(0, &outboundDir{src: c.shards[cl.A], link: cl.Link, dir: 0})
		cl.Link.SetTransport(1, &outboundDir{src: c.shards[cl.B], link: cl.Link, dir: 1})
	}
	n.Sim.SetRunner(c)
}

// await returns once v holds gen. It polls, first spinning when c.spin
// allows, then yielding the processor between polls so an oversubscribed
// run still lets the goroutine it waits for make progress.
func (c *coord) await(v *atomic.Uint64, gen uint64) {
	for i := 0; v.Load() != gen; i++ {
		if !c.spin || i >= spinLimit {
			runtime.Gosched()
		}
	}
}

// serve is the worker loop for one shard: run each window handed out,
// until the coordinator sets stop. Shard 1's worker also folds the
// previous window's streams into the digest before running its own, so
// the fold overlaps shard 0's window on the coordinator.
func (c *coord) serve(sh *shard, folds bool) {
	for gen := uint64(1); ; gen++ {
		c.await(&sh.gen, gen)
		if c.stop.Load() {
			sh.done.Store(gen)
			return
		}
		if folds {
			c.fold()
		}
		sh.executed = sh.sim.RunWindow(c.horizon, sh.executed)
		sh.done.Store(gen)
	}
}

// Run is the sharded replacement for the sequential event loop. Workers
// live for the duration of one call; scenario code only ever observes the
// simulation between Run calls or inside control events, where every
// worker waits at the barrier and every executed event has been folded
// into the digest.
func (c *coord) Run(until simtime.Time) {
	c.gen = 0
	c.spin = len(c.shards) <= runtime.GOMAXPROCS(0)
	c.stop.Store(false)
	for i, sh := range c.shards[1:] {
		sh.gen.Store(0)
		sh.done.Store(0)
		go c.serve(sh, i == 0)
	}
	defer c.retire()
	for {
		tc := c.ctrl.NextEventTime()
		tmin := simtime.Forever
		for _, sh := range c.shards {
			if t := sh.sim.NextEventTime(); t < tmin {
				tmin = t
			}
		}
		next := tc
		if tmin < next {
			next = tmin
		}
		if next > until || next == simtime.Forever {
			break
		}
		if tc <= tmin {
			// Control turn, stop-the-world. The deferred fold goes first:
			// control events fold into the same digest, and probes may
			// read it. Shard clocks advance to the control timestamp so
			// probes and fault transitions observe the same "now"
			// everywhere, and so model events the control code schedules
			// (opening a flow fires its first send immediately) land at
			// legal times on shard cores. Running all control events at
			// tc before any shard event at tc is exactly the sequential
			// equal-time class order.
			c.fold()
			for _, sh := range c.shards {
				sh.sim.SetNow(tc)
			}
			c.stats.Events += c.ctrl.RunLocal(tc)
			c.stats.ControlTurns++
			continue
		}
		// Parallel window: every shard may run strictly below horizon —
		// bounded by the earliest possible cross-shard influence
		// (tmin + lookahead), the next control event, and the run end.
		// The lookahead bound is skipped when it overflows (wa < tmin):
		// that only happens for the no-cut-links sentinel, where shards
		// cannot influence each other at all.
		horizon := tc
		if until != simtime.Forever {
			// One tick past until: RunWindow's bound is strict, and events
			// scheduled exactly at until must run, as the sequential loop
			// runs them.
			if end := until.Add(simtime.Picosecond); end < horizon {
				horizon = end
			}
		}
		if wa := tmin.Add(c.lookahead); wa > tmin && wa < horizon {
			horizon = wa
		}
		c.window(horizon)
		c.injectOutboxes()
		adv := horizon
		if adv > until {
			adv = until
		}
		for _, sh := range c.shards {
			sh.sim.SetNow(adv)
		}
		c.ctrl.SetNow(adv)
	}
	// Advance all clocks to the horizon, exactly as the sequential loop
	// does, so end-of-window measurements agree.
	if until != simtime.Forever {
		for _, sh := range c.shards {
			sh.sim.SetNow(until)
		}
		c.ctrl.SetNow(until)
	}
}

// window runs one conservative window on every shard: the workers' shards
// on their goroutines, shard 0 on the coordinator, then the barrier. The
// streams just executed become the pending fold, which shard 1's worker
// performs at the start of the next window.
func (c *coord) window(horizon simtime.Time) {
	c.horizon = horizon
	c.gen++
	for _, sh := range c.shards[1:] {
		sh.gen.Store(c.gen)
	}
	sh0 := c.shards[0]
	sh0.executed = sh0.sim.RunWindow(horizon, sh0.executed)
	for _, sh := range c.shards[1:] {
		c.await(&sh.done, c.gen)
	}
	for _, sh := range c.shards {
		sh.executed, sh.pending = sh.pending[:0], sh.executed
	}
	c.pending = true
	c.stats.Windows++
}

// retire stops the workers, waiting until each has left its loop, then
// folds any pending window so Digest is exact when Run returns. Stopping
// first keeps the fold single-threaded even when Run unwinds from a
// panic in the middle of a window.
func (c *coord) retire() {
	c.stop.Store(true)
	c.gen++
	for _, sh := range c.shards[1:] {
		sh.gen.Store(c.gen)
	}
	for _, sh := range c.shards[1:] {
		c.await(&sh.done, c.gen)
	}
	c.fold()
}

// fold merges the pending window's per-shard streams into the control
// core's digest in global time order, if a window is pending. Each
// shard's stream is already time-sorted, so this is a k-way merge; ties
// break by shard index, which the digest cannot observe (equal-time folds
// commute — see engine.Digest). It runs on shard 1's worker during the
// next window, or on the coordinator before a control turn and at the end
// of Run: whoever holds the baton at that point.
func (c *coord) fold() {
	if !c.pending {
		return
	}
	c.pending = false
	idx := c.mergeIdx
	for i := range idx {
		idx[i] = 0
	}
	for {
		best := -1
		var bt simtime.Time
		for si, sh := range c.shards {
			if idx[si] < len(sh.pending) {
				if t := sh.pending[idx[si]]; best < 0 || t < bt {
					best, bt = si, t
				}
			}
		}
		if best < 0 {
			return
		}
		c.ctrl.FoldExecuted(bt)
		c.stats.Events++
		idx[best]++
	}
}

// injectOutboxes puts every cross-shard frame sent in the last window on
// its link's destination FIFO and schedules its landing on the
// destination core (Link.Inject). A direction has one sending shard,
// whose outbox holds its frames in send order, so each FIFO receives
// them in arrival order. Lookahead guarantees the arrival time is at or
// beyond every shard's horizon, and the intrinsic (direction, sequence)
// key slots it into the destination queue exactly where a sequential
// run would have put it. Outboxes are empty whenever a control turn
// runs, so a link flap finds every in-flight frame in a FIFO.
func (c *coord) injectOutboxes() {
	for _, sh := range c.shards {
		for _, m := range sh.outbox {
			m.out.link.Inject(m.out.dir, m.at, m.seq, m.pkt)
		}
		sh.outbox = sh.outbox[:0]
	}
}
