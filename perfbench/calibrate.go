package main

import "time"

// calibrationRef is the calibrate time that host-time metrics are scaled
// to: about what it takes on the 2-vCPU VM the baseline was measured on.
const calibrationRef = 0.050 // seconds

// calibrate runs a fixed kernel shaped like the simulator's hot loop, a
// binary heap of pointers into a preallocated event pool with a table
// probe per operation, and returns its host seconds. It uses only the
// standard library and allocates nothing after set-up, so no change to
// the simulator or to its allocation and GC behaviour can change its
// time: what does change it is the host's speed, which drifts on a
// shared machine by 10% to 20% over minutes.
func calibrate() float64 {
	t := time.Now()
	const n = 2048
	pool := make([]calEvent, n)
	h := make([]*calEvent, n)
	var table [4096]int64
	x := uint64(88172645463325252)
	next := func() int64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int64(x >> 44)
	}
	for i := range pool {
		pool[i].at = next()
		h[i] = &pool[i]
	}
	down := func(i int) {
		for {
			l := 2*i + 1
			if l >= n {
				return
			}
			if r := l + 1; r < n && h[r].at < h[l].at {
				l = r
			}
			if h[i].at <= h[l].at {
				return
			}
			h[i], h[l] = h[l], h[i]
			i = l
		}
	}
	for i := n/2 - 1; i >= 0; i-- {
		down(i)
	}
	var sum int64
	for i := 0; i < 400000; i++ {
		e := h[0]
		table[e.at&4095] += e.pay
		sum += table[(e.at>>5)&4095]
		e.at += next()
		e.pay = sum
		down(0)
	}
	calSink = sum
	return time.Since(t).Seconds()
}

// calEvent is sized like a simulator event with its payload.
type calEvent struct {
	at, pay int64
	_       [6]int64
}

var calSink int64
