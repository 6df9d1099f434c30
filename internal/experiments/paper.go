package experiments

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"dcqcn/internal/buffercalc"
)

// Figure is one entry of the paper's evaluation: either a Registry
// selection (Scenarios), swept like any other, or a direct entry that
// renders itself (fluid model, host model, analytical tables, and
// experiments that are not registry scenarios).
type Figure struct {
	Name, Desc string
	Scenarios  string
	Render     func(Fidelity) string
}

// Figures lists the paper's evaluation in the order the paper presents
// it.
func Figures() []Figure {
	return []Figure{
		{Name: "fig1", Desc: "TCP vs RDMA throughput / CPU / latency (host model)",
			Render: func(Fidelity) string { return Fig1Table() }},
		{Name: "fig3+8", Desc: "PFC unfairness H1-H4 -> R; DCQCN fixes it", Scenarios: "unfairness"},
		{Name: "fig4+9", Desc: "Victim flow vs senders under T3, per mode", Scenarios: "victimflow"},
		{Name: "fig10", Desc: "Fluid model vs packet-level implementation",
			Render: func(fid Fidelity) string { return FluidVsPacket(fid).Table() }},
		{Name: "fig11", Desc: "Convergence sweeps: byte counter, timer, Kmax, Pmax (fluid)",
			Render: func(Fidelity) string { return fig11Table(Fig11Sweeps()) }},
		{Name: "fig12", Desc: "Queue length vs g (fluid, 2:1 and 16:1 incast)",
			Render: func(Fidelity) string { return Fig12Table(Fig12AlphaGain()) }},
		{Name: "fig13", Desc: "Parameter validation microbenchmarks (packet-level)", Scenarios: "convergence-fig13"},
		{Name: "fig14", Desc: "Deployed parameter table",
			Render: func(Fidelity) string { return paramsTable }},
		{Name: "fig15+16", Desc: "Benchmark traffic: user/incast percentiles and spine PAUSEs", Scenarios: "benchmark-fig16"},
		{Name: "fig17", Desc: "16x load: 5 pairs no-DCQCN vs 80 pairs DCQCN (incast 10)",
			Render: func(fid Fidelity) string {
				r := Fig17(5, 80, 10, fid)
				return fmt.Sprintf(
					"user median: no-DCQCN(5 pairs) %.2fG vs DCQCN(80 pairs) %.2fG\n"+
						"user CDF points: %d vs %d\n",
					r.NoDCQCNUserMedian, r.DCQCNUserMedian,
					len(r.NoDCQCNUser), len(r.DCQCNUser))
			}},
		{Name: "fig18", Desc: "Need for PFC and correct thresholds (8:1 incast)", Scenarios: "fig18"},
		{Name: "fig19", Desc: "Queue length CDF: DCQCN vs DCTCP (20:1 incast)",
			Render: func(fid Fidelity) string {
				r := Fig19(fid)
				return r.Table()
			}},
		{Name: "fig20", Desc: "Multi-bottleneck parking lot: cut-off vs RED marking",
			Render: func(fid Fidelity) string { return Fig20Table(Fig20(fid)) }},
		{Name: "sec7-loss", Desc: "Non-congestion random loss vs go-back-N goodput", Scenarios: "randomloss"},
		{Name: "sec4", Desc: "Buffer thresholds (t_flight, t_PFC, t_ECN)",
			Render: func(Fidelity) string {
				return fmt.Sprintf("Arista 7050QX32 (B=12MB, n=32, 8 priorities, 40G, MTU 1500):\n  %s\n",
					buffercalc.DefaultArista7050QX32().Plan(8))
			}},
		{Name: "sec6.1", Desc: "K:1 incast summary: utilization, queue, losslessness", Scenarios: "incast"},
		{Name: "classes", Desc: "Extension: PFC class isolation (multi-class, DRR)",
			Render: func(fid Fidelity) string { return ClassIsolationTable(ClassIsolation(fid)) }},
		{Name: "timely", Desc: "Extension: DCQCN (ECN) vs TIMELY (delay) baseline",
			Render: func(fid Fidelity) string { return TimelyComparisonTable(TimelyComparison(fid)) }},
		{Name: "ablations", Desc: "Design-choice ablations (g, R_AI, timer, CNP priority)", Scenarios: "ablation-*"},
		{Name: "chaos", Desc: "Fault injection: pause storms, flaps, loss windows, deadlock probe", Scenarios: "chaos-*"},
		{Name: "hybrid", Desc: "Hybrid fluid/packet co-simulation: 10k/100k/1M background flows + validation", Scenarios: "hybrid-*"},
	}
}

// SelectFigures resolves a comma-separated list of entry names, in the
// order given; an empty selection or "all" selects every entry.
func SelectFigures(selection string) ([]Figure, error) {
	all := Figures()
	if s := strings.TrimSpace(selection); s == "" || s == "all" {
		return all, nil
	}
	var out []Figure
	for _, name := range strings.Split(selection, ",") {
		name = strings.TrimSpace(name)
		i := slices.IndexFunc(all, func(f Figure) bool { return f.Name == name })
		if i < 0 {
			return nil, fmt.Errorf("unknown paper entry %q", name)
		}
		out = append(out, all[i])
	}
	return out, nil
}

// fig11Table renders the fluid convergence sweeps in sweep-name order.
func fig11Table(sweeps map[string][]SweepPoint) string {
	keys := make([]string, 0, len(sweeps))
	for k := range sweeps {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s:\n", k)
		for _, p := range sweeps[k] {
			fmt.Fprintf(&b, "  %-14s mean |r1-r2| = %6.2f Gbps\n", p.Label, p.RateDiff)
		}
	}
	return b.String()
}

// paramsTable is the deployed DCQCN parameter set of the paper's Fig. 14.
const paramsTable = `parameter     value        (paper Fig. 14)
------------  -----------
timer         55 us
byte counter  10 MB
K_max         200 KB
K_min         5 KB
P_max         1%
g             1/256
F             5
R_AI          40 Mbps
CNP interval  50 us
alpha timer   55 us
`
