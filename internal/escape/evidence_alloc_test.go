//go:build !race

// The runtime half of the evidence: stack forms allocate nothing,
// retained forms do. The race detector perturbs allocation counts, so
// this half only runs in non-race builds, like the budgets in the hot
// packages.

package escape

import "testing"

func TestEvidenceAllocs(t *testing.T) {
	for _, e := range evidence {
		if e.run == nil {
			continue
		}
		avg := testing.AllocsPerRun(100, e.run)
		switch {
		case e.kind == stack && avg != 0:
			t.Errorf("%s (%s): stack form allocates %.2f objects/op, want 0", e.construct, e.fn, avg)
		case e.kind == retained && avg == 0:
			t.Errorf("%s (%s): retained form allocates nothing; its hotalloc rule has no evidence", e.construct, e.fn)
		default:
			t.Logf("%s (%s): %.2f allocs/op", e.construct, e.fn, avg)
		}
	}
}
