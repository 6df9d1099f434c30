package harness

import (
	"encoding/json"
	"flag"
	"fmt"

	"dcqcn/internal/cc"
	"dcqcn/internal/simtime"
)

// RunConfig holds the settings that cut across every scenario of a run.
// CLIs bind it to flags once (Bind) and validate it once (Resolve);
// experiments.options turns it into topology options and Provenance
// embeds it, so its json tags are provenance.json's keys.
type RunConfig struct {
	// Fidelity names the experiment fidelity ("quick" or "full").
	Fidelity string `json:"fidelity"`
	// Shards, when > 1, runs each simulation sharded across that many
	// cores (internal/parallel), digest-identical to sequential; stars
	// cannot split and stay sequential.
	Shards int `json:"shards"`
	// CC names the congestion-control algorithm of the DCQCN modes (the
	// PFC-only baseline keeps its fixed-rate sender); empty means
	// "dcqcn". Before Resolve it may be a comma-separated list.
	CC string `json:"cc,omitempty"`
	// CCParams, if non-nil, is a JSON object overlaid onto the
	// algorithm's default parameters; Resolve replaces it with the
	// algorithm's full parameter set.
	CCParams json.RawMessage `json:"cc_params,omitempty"`
	// Hybrid arms the fluid background substrate (internal/hybrid) on
	// every network a scenario builds, modeling BgFlows long-lived flows
	// as fluid DCQCN classes. Armed at BgFlows = 0 it attaches nothing
	// and digests stay bit-identical to an unarmed run.
	Hybrid  bool `json:"hybrid_armed"`
	BgFlows int  `json:"bg_flows,omitempty"`
}

// Bind declares the shared run flags -cc, -shards, -hybrid and
// -bg-flows on fs; parsing fs fills rc. Call Resolve after parsing.
func (rc *RunConfig) Bind(fs *flag.FlagSet) {
	fs.StringVar(&rc.CC, "cc", "dcqcn", "congestion-control algorithm by internal/cc registry name (dcqcn-sweep takes a comma-separated list; see -list-cc)")
	fs.IntVar(&rc.Shards, "shards", 0, "shard each simulation across N cores (internal/parallel; digests unchanged; star topologies stay sequential)")
	fs.BoolVar(&rc.Hybrid, "hybrid", false, "arm the fluid background substrate on every run (see -bg-flows)")
	fs.IntVar(&rc.BgFlows, "bg-flows", 0, "background flows modeled as fluid classes (> 0 implies -hybrid)")
}

// Resolve validates rc and expands it into one run configuration per
// algorithm in CC, each carrying that algorithm's full parameter set in
// CCParams and Hybrid set whenever BgFlows > 0. Errors name the
// offending flag; CLIs exit 2 on them.
func (rc RunConfig) Resolve() ([]RunConfig, error) {
	if rc.Shards < 0 {
		return nil, fmt.Errorf("-shards must be >= 0, got %d", rc.Shards)
	}
	if rc.BgFlows < 0 {
		return nil, fmt.Errorf("-bg-flows must be >= 0, got %d", rc.BgFlows)
	}
	rc.Hybrid = rc.Hybrid || rc.BgFlows > 0
	sels, err := cc.ParseSelections(rc.CC, 40*simtime.Gbps)
	if err != nil {
		return nil, err
	}
	if rc.CCParams != nil && len(sels) != 1 {
		return nil, fmt.Errorf("-cc-params requires exactly one -cc algorithm")
	}
	runs := make([]RunConfig, len(sels))
	for i, sel := range sels {
		run := rc
		run.CC = sel.Name
		if sel, err = run.Selection(); err != nil {
			return nil, err
		}
		run.CCParams = sel.ParamsJSON()
		runs[i] = run
	}
	return runs, nil
}

// Selection resolves CC (empty means "dcqcn") against the cc registry
// and overlays CCParams onto the algorithm's defaults.
func (rc RunConfig) Selection() (cc.Selection, error) {
	name := rc.CC
	if name == "" {
		name = "dcqcn"
	}
	sel, err := cc.Select(name, 40*simtime.Gbps)
	if err != nil {
		return sel, err
	}
	if rc.CCParams != nil {
		err = sel.ApplyParamsJSON(rc.CCParams)
	}
	return sel, err
}
