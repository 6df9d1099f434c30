// Package a exercises the hotchain analyzer: On*-hook-field installs —
// direct or through a hooks.Chain* helper — are flagged inside
// //hot:path functions and pass in unannotated (attach-time) code. The
// closure a per-event hooks.Chain builds is a heap escape, which the
// escape audit reports.
package a

import "dcqcn/internal/lint/testdata/src/hotchain/hooks"

type packet struct{ size int }

type port struct {
	OnRx        func(*packet)
	OnDeparture func(*packet)
	rxBytes     int
}

//hot:path
func (p *port) receive(pkt *packet, observer func(*packet)) {
	p.rxBytes += pkt.size
	p.OnRx = hooks.Chain(p.OnRx, trace) // want `hook field OnRx installed in hot function receive`
	p.OnDeparture = observer            // want `hook field OnDeparture installed in hot function receive`
	if p.OnRx != nil {
		p.OnRx(pkt) // invoking an installed hook is the dispatch path itself: passes
	}
}

// attach is unannotated setup code: the same constructs pass.
func (p *port) attach(observer func(*packet)) {
	p.OnRx = hooks.Chain(p.OnRx, trace)
	p.OnDeparture = observer
}

// trace is a passive subscriber.
func trace(*packet) {}
