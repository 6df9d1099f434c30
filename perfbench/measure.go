package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"dcqcn/internal/simtime"
)

// runResult is everything one operation (one simulation run) yields.
type runResult struct {
	setup      setupTimes
	digest     string
	events     uint64
	calS       float64   // calibrate seconds, mean of one call before and one after the run
	hostS      float64   // host seconds spent in Sim.Run
	cpuS       float64   // process CPU seconds (getrusage) over the same span
	sliceMs    []float64 // host ms per simulated ms, one per slice
	mallocs    uint64
	allocBytes uint64
	heapPeak   uint64 // heap object bytes, live or not yet freed, highest slice-boundary sample
	gcCycles   uint64
	gcCPUShare float64
	pendingMax int
	layers     layerCounts
	fctUs      []float64
	simS       float64 // simulated seconds
}

// layerCounts are the per-layer counters read from public accessors
// after a run.
type layerCounts struct {
	linkTxPackets                          int64
	forwarded, ecnMarked, pauseSent, drops int64
	maxOccupied                            int64
	cnpsSent, cnpsReceived                 int64
	completions, payloadAcked, bytesSent   int64
	retransmitBytes                        int64
	hybridSteps                            uint64
	hybridClasses, hybridPorts             int
}

var rtSamples = []metrics.Sample{
	{Name: "/memory/classes/heap/objects:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// runOnce builds w's network from seed and simulates w.length, timing
// every slice. spans, when non-nil, receives a span per phase and slice
// under parent.
func runOnce(w *workloadDef, seed int64, spans *spanLog, parent int) (res runResult) {
	runtime.GC() // start every operation from a collected heap
	cal := calibrate()
	in, st := w.build(seed, &stopwatch{spans: spans, parent: parent})
	res.setup = st

	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	metrics.Read(rtSamples)
	gc0, gcCPU0, cpu0 := rtSamples[1].Value.Uint64(), rtSamples[2].Value.Float64(), rtSamples[3].Value.Float64()
	ru0 := processCPU()
	start := time.Now()

	sim := in.net.Sim
	slice := w.length / slicesPerRun
	res.sliceMs = make([]float64, 0, slicesPerRun)
	sliceSimMs := slice.Seconds() * 1e3
	prev := start
	for i := 1; i <= slicesPerRun; i++ {
		sp := spans.begin(parent, "slice")
		sim.Run(simtime.Time(slice) * simtime.Time(i))
		spans.end(sp)
		now := time.Now()
		res.sliceMs = append(res.sliceMs, float64(now.Sub(prev).Nanoseconds())/1e6/sliceSimMs)
		prev = now
		if p := sim.Pending(); p > res.pendingMax {
			res.pendingMax = p
		}
		metrics.Read(rtSamples[:1])
		if h := rtSamples[0].Value.Uint64(); h > res.heapPeak {
			res.heapPeak = h
		}
	}
	res.hostS = time.Since(start).Seconds()
	res.cpuS = processCPU() - ru0

	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	metrics.Read(rtSamples)
	res.mallocs = after.Mallocs - before.Mallocs
	res.allocBytes = after.TotalAlloc - before.TotalAlloc
	res.gcCycles = rtSamples[1].Value.Uint64() - gc0
	if cpu := rtSamples[3].Value.Float64() - cpu0; cpu > 0 {
		res.gcCPUShare = (rtSamples[2].Value.Float64() - gcCPU0) / cpu
	}

	res.calS = (cal + calibrate()) / 2

	d := sim.Digest()
	res.digest = d.String()
	res.events = d.Events
	res.simS = w.length.Seconds()
	res.layers = countLayers(in)
	for _, f := range in.flows {
		res.fctUs = append(res.fctUs, f.fctUs...)
	}
	return res
}

// countLayers reads every layer's counters through public accessors.
func countLayers(in *instance) layerCounts {
	var c layerCounts
	net := in.net
	for _, name := range net.SwitchNames() {
		sw := net.Switch(name)
		c.forwarded += sw.Stats.Forwarded
		c.ecnMarked += sw.Stats.EcnMarked
		c.pauseSent += sw.Stats.PauseSent
		c.drops += sw.Stats.Drops
		if sw.Stats.MaxOccupied > c.maxOccupied {
			c.maxOccupied = sw.Stats.MaxOccupied
		}
		for i := 0; i < sw.NumPorts(); i++ {
			c.linkTxPackets += sw.Port(i).Stats.TxPackets
		}
	}
	for _, name := range net.HostNames() {
		h := net.Host(name)
		c.cnpsSent += h.Stats.CNPsSent
		c.cnpsReceived += h.Stats.CNPsReceived
		c.linkTxPackets += h.Port().Stats.TxPackets
	}
	for _, f := range in.flows {
		s := f.flow.Stats()
		c.completions += s.Completions
		c.payloadAcked += s.PayloadAcked
		c.bytesSent += s.BytesSent
		c.retransmitBytes += s.RetransmitBytes
	}
	if in.sub != nil {
		c.hybridSteps = in.sub.Steps()
		c.hybridClasses = in.sub.Classes()
		c.hybridPorts = in.sub.Ports()
	}
	return c
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs, which it sorts in place. The value has n-rank samples above it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	return xs[rank(len(xs), p)-1]
}

// rank is the 1-based nearest-rank index of the p-th percentile of n
// samples.
func rank(n int, p float64) int {
	x := p / 100 * float64(n)
	r := int(math.Ceil(x - 1e-9*x)) // 99.9% of 10000 must not round up past 9990
	if r < 1 {
		r = 1
	}
	return r
}

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// highestPercentile returns the highest of candidates (ascending) that
// n samples support with at least minBeyond samples beyond it, or 0
// when none does.
func highestPercentile(n int, candidates []float64) float64 {
	best := 0.0
	for _, p := range candidates {
		if n-rank(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

// requirePercentile fails when n samples cannot support percentile p.
func requirePercentile(what string, n int, p float64) error {
	if highestPercentile(n, []float64{p}) < p {
		return fmt.Errorf("%s: %d samples cannot support p%g with %d beyond it", what, n, p, minBeyond)
	}
	return nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartileSpread is (Q3-Q1)/median with the quartiles taken as Python's
// statistics.quantiles(xs, n=4) takes them (the "exclusive" method).
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k float64) float64 {
		pos := k * float64(len(s)+1) / 4
		j := int(pos)
		if j < 1 {
			return s[0]
		}
		if j >= len(s) {
			return s[len(s)-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / med
}
