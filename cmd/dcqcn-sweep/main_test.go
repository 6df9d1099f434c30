package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestUnknownCCFailsCleanly pins the bad-flag contract of the CLIs that
// bind the shared run flags (harness.RunConfig.Bind): an unknown -cc
// algorithm, a negative -bg-flows or -shards, and an unknown -paper
// entry must each exit with status 2 (usage error, not a crash or a
// silent run) and name what was wrong, so the fix is in the message.
func TestUnknownCCFailsCleanly(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns each CLI")
	}
	cases := []struct {
		name string
		args []string
		want []string // substrings the error must contain
		cli  string   // "" = every CLI
	}{
		{"unknown-cc", []string{"-cc", "no-such-algo"}, []string{`"no-such-algo"`, "dcqcn", "switch-assist"}, ""},
		{"negative-bg-flows", []string{"-hybrid", "-bg-flows", "-5"}, []string{"-bg-flows", "-5"}, ""},
		{"negative-shards", []string{"-shards", "-1"}, []string{"-shards", "-1"}, ""},
		{"unknown-paper-entry", []string{"-paper", "-scenario", "fig99"}, []string{`"fig99"`, "-paper -list"}, "dcqcn-sweep"},
		{"trailing-cc-params", []string{"-cc-params", "{} x"}, []string{"dcqcn params", "trailing data"}, "dcqcn-sweep"},
	}
	for _, cli := range []string{"dcqcn-sweep", "dcqcn-sim"} {
		cli := cli
		t.Run(cli, func(t *testing.T) {
			t.Parallel()
			bin := filepath.Join(t.TempDir(), cli)
			if out, err := exec.Command("go", "build", "-o", bin, "dcqcn/cmd/"+cli).CombinedOutput(); err != nil {
				t.Fatalf("build %s: %v\n%s", cli, err, out)
			}
			for _, tc := range cases {
				if tc.cli != "" && tc.cli != cli {
					continue
				}
				tc := tc
				t.Run(tc.name, func(t *testing.T) {
					cmd := exec.Command(bin, tc.args...)
					cmd.Dir = t.TempDir() // a run that wrongly starts leaves no artifacts behind
					out, err := cmd.CombinedOutput()
					if err == nil {
						t.Fatalf("%s accepted %v:\n%s", cli, tc.args, out)
					}
					ee, ok := err.(*exec.ExitError)
					if !ok {
						t.Fatalf("%s did not run: %v", cli, err)
					}
					if code := ee.ExitCode(); code != 2 {
						t.Fatalf("%s %v exit code %d, want 2; output:\n%s", cli, tc.args, code, out)
					}
					for _, w := range tc.want {
						if !strings.Contains(string(out), w) {
							t.Fatalf("%s %v error does not mention %q:\n%s", cli, tc.args, w, out)
						}
					}
				})
			}
		})
	}
}
