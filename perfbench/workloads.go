package main

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"dcqcn/internal/engine"
	"dcqcn/internal/hybrid"
	"dcqcn/internal/nic"
	"dcqcn/internal/rocev2"
	"dcqcn/internal/simtime"
	"dcqcn/internal/topology"
	"dcqcn/internal/workload"

	// Registers the sharded runtime behind topology.Options.Shards.
	_ "dcqcn/internal/parallel"
)

// The four workloads. Every one runs DCQCN with the default parameters.
// Each operation builds a fresh network from the seed and simulates
// length in slicesPerRun equal slices, reading the host clock at every
// slice boundary. Lengths are sized so that one operation costs a few
// host seconds.
var workloads = []*workloadDef{
	{
		name: "testbed-incast",
		why:  "27:1 closed-loop 2 MB incast across the 3-tier testbed: the per-packet path with a PFC cascade",
		// The length is shared with testbed-incast-shards2, whose
		// operations must reproduce this workload's digest.
		length: incastLength,
		build:  func(seed int64, sw *stopwatch) (*instance, setupTimes) { return buildIncast(seed, 0, sw) },
	},
	{
		name:   "testbed-usermix",
		why:    "open-loop Poisson user traffic at 30% load, storage-trace sizes, all-to-all over 20 hosts: many flows and RP timers",
		length: usermixLength,
		build:  buildUsermix,
	},
	{
		name:   "star-hybrid-1m",
		why:    "8:1 star incast under 1,000,000 fluid background flows: the only workload that runs fluid and hybrid",
		length: 4 * simtime.Second,
		build:  buildStarHybrid,
	},
	{
		name:   "testbed-incast-shards2",
		why:    "testbed-incast run sharded across two cores: the only workload that runs parallel",
		length: incastLength,
		shards: 2,
		build:  func(seed int64, sw *stopwatch) (*instance, setupTimes) { return buildIncast(seed, 2, sw) },
	},
}

const incastLength = 120 * simtime.Millisecond

// slicesPerRun is the number of host-time samples one operation yields:
// enough for a p90 with twenty samples beyond it.
const slicesPerRun = 200

// workloadDef names one workload and builds its network and traffic.
type workloadDef struct {
	name   string
	why    string
	length simtime.Duration
	shards int
	build  func(seed int64, sw *stopwatch) (*instance, setupTimes)
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// setupTimes splits one set-up into its phases, in host seconds.
type setupTimes struct {
	topology, traffic, substrate float64
}

func (s setupTimes) total() float64 { return s.topology + s.traffic + s.substrate }

// instance is one built network with its foreground traffic attached.
type instance struct {
	net   *topology.Network
	sub   *hybrid.Substrate // nil unless the workload runs the fluid substrate
	flows []*fgFlow         // every foreground flow opened so far
}

// fgFlow is one foreground flow and the completion times of its
// messages. Each flow keeps its own record because completions of a
// sharded run fire on the flow's shard goroutine.
type fgFlow struct {
	flow  *nic.Flow
	fctUs []float64
}

func (in *instance) open(src, dst string) *fgFlow {
	f := &fgFlow{flow: in.net.Host(src).OpenFlow(in.net.Host(dst).ID)}
	in.flows = append(in.flows, f)
	return f
}

// complete records one finished message.
func (f *fgFlow) complete(c rocev2.Completion) {
	f.fctUs = append(f.fctUs, c.Duration().Microseconds())
}

// closedLoop keeps one size-byte message outstanding from start on:
// each completion posts the next.
func (f *fgFlow) closedLoop(sim *engine.Sim, start simtime.Time, size int64) {
	var post func()
	post = func() {
		f.flow.PostMessage(size, func(c rocev2.Completion) {
			f.complete(c)
			post()
		})
	}
	sim.At(start, post)
}

// startJitter bounds the seeded offset at which each closed-loop sender
// starts, so that seeds differ in the order senders collide.
const startJitter = 10 * simtime.Microsecond

func jitter(rng *rand.Rand) simtime.Time {
	return simtime.Time(rng.Int63n(int64(startJitter)))
}

// stopwatch times the set-up phases of one build and records a span
// for each under parent.
type stopwatch struct {
	spans  *spanLog
	parent int
	t      time.Time
	span   int
}

func (s *stopwatch) start(phase string) {
	s.span = s.spans.begin(s.parent, phase)
	s.t = time.Now()
}

// stop ends the current phase and returns its host seconds.
func (s *stopwatch) stop() float64 {
	d := time.Since(s.t).Seconds()
	s.spans.end(s.span)
	return d
}

// buildIncast is the Fig. 2 testbed at 9 hosts per ToR: each of the 27
// hosts outside H11's ToR sends 2 MB reads into H11, closed loop.
func buildIncast(seed int64, shards int, sw *stopwatch) (*instance, setupTimes) {
	var st setupTimes
	opts := topology.DefaultOptions()
	opts.HostsPerToR = 9
	opts.ECMPSeedBase = uint64(seed)
	opts.Shards = shards
	sw.start("setup.topology")
	net := topology.NewTestbed(seed, opts)
	st.topology = sw.stop()

	sw.start("setup.traffic")
	in := &instance{net: net}
	rng := rand.New(rand.NewSource(seed))
	for _, name := range net.HostNames() {
		if name[1] == '1' { // H11..H19 share the receiver's ToR
			continue
		}
		in.open(name, "H11").closedLoop(net.Sim, jitter(rng), 2e6)
	}
	st.traffic = sw.stop()
	return in, st
}

// buildStarHybrid is the registry's hybrid-incast 1M point: H1..H8 send
// closed-loop 2 MB messages into H9 on a one-switch star while a million
// fluid background flows load the same switch.
func buildStarHybrid(seed int64, sw *stopwatch) (*instance, setupTimes) {
	var st setupTimes
	opts := topology.DefaultOptions()
	sw.start("setup.topology")
	net := topology.NewStar(seed, 9, opts)
	st.topology = sw.stop()

	sw.start("setup.substrate")
	cfg := hybrid.DefaultConfig()
	cfg.Params = opts.Switch.Marking
	sub := hybrid.AttachBackground(net, cfg, 1_000_000)
	st.substrate = sw.stop()

	sw.start("setup.traffic")
	in := &instance{net: net, sub: sub}
	rng := rand.New(rand.NewSource(seed))
	for _, name := range net.HostNames()[:8] {
		in.open(name, "H9").closedLoop(net.Sim, jitter(rng), 2e6)
	}
	st.traffic = sw.stop()
	return in, st
}

// Usermix traffic: each host offers usermixLoad of its link as Poisson
// message arrivals to uniformly chosen other hosts.
const (
	usermixLength   = 40 * simtime.Millisecond
	usermixLoad     = 0.3
	usermixLinkRate = 40 * simtime.Gbps
)

// arrival is one scheduled message of the usermix workload.
type arrival struct {
	At       simtime.Time
	Src, Dst int // indices into the host list
	Size     int64
}

// usermixSchedule draws the whole open-loop schedule for hosts over
// [0, length) from seed. Each host sends the number of messages that
// offers load × rate on average, at independent uniform times: a
// Poisson process conditioned on its expected count. A host's k-th
// message goes to the k-th other host in turn, so destinations are
// uniform and balanced. Sizes follow dist by stratified sampling: the
// schedule's n messages take one quantile each from the n equal strata
// of the CDF, in random order. Every size is still distributed as dist,
// but the work a seed offers no longer hinges on how many
// multi-megabyte messages its draws happen to contain, so seeds offer
// nearly equal work. The result is ordered by time, then source.
func usermixSchedule(seed int64, hosts int, length simtime.Duration, load float64, rate simtime.Rate, dist workload.SizeDist) []arrival {
	rng := rand.New(rand.NewSource(seed))
	perHost := int(math.Round(load * float64(rate) * length.Seconds() / 8 / dist.Mean()))
	out := make([]arrival, 0, hosts*perHost)
	for src := 0; src < hosts; src++ {
		for k := 0; k < perHost; k++ {
			out = append(out, arrival{
				At:  simtime.Time(rng.Int63n(int64(length))),
				Src: src,
				Dst: (src + 1 + k%(hosts-1)) % hosts,
			})
		}
	}
	strata := rng.Perm(len(out))
	for i := range out {
		u := (float64(strata[i]) + rng.Float64()) / float64(len(out))
		out[i].Size = dist.Sample(rand.New(quantile(u)))
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// quantile is a rand.Source whose rand.Rand.Float64 returns the value
// itself: math/rand defines Float64 as Int63()/2^63 and keeps its value
// streams fixed across releases. SizeDist.Sample draws exactly one
// Float64, so sampling through it yields the u-quantile of the
// distribution.
type quantile float64

func (u quantile) Int63() int64 {
	const max = 1<<63 - 1024 // below 2^63 after float64 rounding
	return int64(math.Min(float64(u)*(1<<63), max))
}

func (quantile) Seed(int64) {}

// buildUsermix is the testbed at its default 5 hosts per ToR carrying
// §6.2-style user traffic. One persistent flow per (src, dst) is opened
// on first use; the whole schedule is posted up front with Sim.At.
func buildUsermix(seed int64, sw *stopwatch) (*instance, setupTimes) {
	var st setupTimes
	opts := topology.DefaultOptions()
	opts.ECMPSeedBase = uint64(seed)
	sw.start("setup.topology")
	net := topology.NewTestbed(seed, opts)
	st.topology = sw.stop()

	sw.start("setup.traffic")
	in := &instance{net: net}
	names := net.HostNames()
	n := len(names)
	sched := usermixSchedule(seed, n, usermixLength, usermixLoad, usermixLinkRate, workload.StorageTraceDist())
	flows := make([]*fgFlow, n*n)
	for _, a := range sched {
		a := a
		net.Sim.At(a.At, func() {
			f := flows[a.Src*n+a.Dst]
			if f == nil {
				f = in.open(names[a.Src], names[a.Dst])
				flows[a.Src*n+a.Dst] = f
			}
			f.flow.PostMessage(a.Size, f.complete)
		})
	}
	st.traffic = sw.stop()
	return in, st
}
