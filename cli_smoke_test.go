package sccsim

// CLI smoke tests: every command must answer -version with the shared
// banner without running a simulation. Each invocation goes through
// `go run`, so this doubles as a build check for the commands themselves.

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"sccsim/internal/obs"
	"sccsim/internal/telemetry"
)

func TestCLIVersionFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping CLI builds in -short mode")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	for _, tool := range []string{"sccsim", "sccbench", "sccdiff", "sccserve"} {
		tool := tool
		t.Run(tool, func(t *testing.T) {
			t.Parallel()
			out, err := exec.Command("go", "run", "./cmd/"+tool, "-version").CombinedOutput()
			if err != nil {
				t.Fatalf("%s -version: %v\n%s", tool, err, out)
			}
			got := strings.TrimSpace(string(out))
			for _, frag := range []string{tool, obs.Version, "schema"} {
				if !strings.Contains(got, frag) {
					t.Errorf("%s -version = %q, missing %q", tool, got, frag)
				}
			}
			if strings.Count(got, "\n") != 0 {
				t.Errorf("%s -version printed more than the banner:\n%s", tool, got)
			}
		})
	}
}

// TestCLIMetricsDump runs a real (tiny) simulation through sccsim with
// -metrics-dump - and validates the emitted Prometheus exposition: it
// must parse under the scraper's structural rules and carry the runner's
// job counters for the run that just happened. The same run writes both
// profiles, which must land on disk non-empty at exit.
func TestCLIMetricsDump(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping CLI builds in -short mode")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	out, err := exec.Command("go", "run", "./cmd/sccsim",
		"-workload", "mcf", "-max-uops", "2000", "-metrics-dump", "-",
		"-cpuprofile", cpu, "-memprofile", mem).Output()
	if err != nil {
		t.Fatalf("sccsim -metrics-dump: %v", err)
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s missing or empty (%v)", filepath.Base(p), err)
		}
	}
	// The exposition is everything after the run report; locate its first
	// header line and parse from there.
	idx := strings.Index(string(out), "# HELP")
	if idx < 0 {
		t.Fatalf("no exposition in stdout:\n%s", out)
	}
	exp, err := telemetry.ParseExposition(out[idx:])
	if err != nil {
		t.Fatalf("exposition does not validate: %v\n%s", err, out[idx:])
	}
	if exp.Samples["runner_jobs_completed_total"] != 1 {
		t.Errorf("runner_jobs_completed_total = %v, want 1 (one run executed)",
			exp.Samples["runner_jobs_completed_total"])
	}
	if exp.Samples["runner_sweeps_total"] != 1 {
		t.Errorf("runner_sweeps_total = %v, want 1", exp.Samples["runner_sweeps_total"])
	}
	if _, ok := exp.Samples["process_uptime_seconds"]; !ok {
		t.Error("process_uptime_seconds missing from the dump")
	}
	if typ := exp.Types["runner_job_wall_seconds"]; typ != "histogram" {
		t.Errorf("runner_job_wall_seconds TYPE = %q, want histogram", typ)
	}
}

// TestCLITopGolden pins sccsim -top against goldens captured from the
// former scctrace command at the same workload, budget and N: after the
// run report, the SCC unit summary and the compacted-line dump must match
// byte for byte. The run's manifest must also carry the ConfigHash of
// SCCConfig(LevelFull), the machine scctrace built.
func TestCLITopGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping CLI builds in -short mode")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	for _, tc := range []struct{ workload, top string }{{"xalancbmk", "3"}, {"gcc", "5"}} {
		tc := tc
		t.Run(tc.workload, func(t *testing.T) {
			t.Parallel()
			want, err := os.ReadFile(filepath.Join("testdata", "top_"+tc.workload+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			manPath := filepath.Join(t.TempDir(), "run.json")
			out, err := exec.Command("go", "run", "./cmd/sccsim", "-workload", tc.workload,
				"-max-uops", "20000", "-enable-superoptimization", "-top", tc.top,
				"-json", manPath).Output()
			if err != nil {
				t.Fatalf("sccsim -top %s: %v\n%s", tc.top, err, out)
			}
			i := bytes.Index(out, []byte("\nworkload "+tc.workload+":"))
			if i < 0 {
				t.Fatalf("no -top section in stdout:\n%s", out)
			}
			if got := out[i+1:]; !bytes.Equal(got, want) {
				t.Errorf("-top output differs from the golden\n--- got:\n%s\n--- want:\n%s", got, want)
			}

			raw, err := os.ReadFile(manPath)
			if err != nil {
				t.Fatal(err)
			}
			var man struct {
				ConfigHash string `json:"config_hash"`
			}
			if err := json.Unmarshal(raw, &man); err != nil {
				t.Fatal(err)
			}
			cfg := SCCConfig(LevelFull)
			cfg.MaxUops = 20000
			if wantHash := obs.ConfigHash(tc.workload, cfg); man.ConfigHash != wantHash {
				t.Errorf("config_hash = %s, want SCCConfig(LevelFull)'s %s", man.ConfigHash, wantHash)
			}
		})
	}
}
