package sccsim

// CLI flag-validation tests: bad flag values must be rejected up front
// with a usage error (exit 2) and a pointed stderr message instead of
// silently coercing (the runner treats negative Parallel as GOMAXPROCS,
// which would mask a scripting typo like `-parallel -8`).

import (
	"os/exec"
	"strings"
	"testing"
)

func TestCLIRejectsNegativeParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping CLI builds in -short mode")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	cases := []struct {
		tool string
		args []string
	}{
		// Each invocation would be a real (if tiny) run when valid, so a
		// pass proves validation fires before any simulation starts.
		{"sccsim", []string{"-parallel", "-1", "-workload", "mcf", "-max-uops", "1000"}},
		{"sccbench", []string{"-parallel", "-1", "-experiment", "table1"}},
		{"scctrace", []string{"-parallel", "-1", "-workload", "mcf", "-max-uops", "1000"}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.tool, func(t *testing.T) {
			t.Parallel()
			out, err := exec.Command("go", append([]string{"run", "./cmd/" + tc.tool}, tc.args...)...).CombinedOutput()
			if err == nil {
				t.Fatalf("%s accepted -parallel -1:\n%s", tc.tool, out)
			}
			// go run relays the child's status as "exit status N" on
			// stderr while exiting 1 itself, so assert on the relayed code.
			if !strings.Contains(string(out), "exit status 2") {
				t.Errorf("%s did not exit with usage error 2:\n%s", tc.tool, out)
			}
			if !strings.Contains(string(out), "-parallel must be >= 0") {
				t.Errorf("%s stderr missing the -parallel message:\n%s", tc.tool, out)
			}
		})
	}
}

// TestCLIRejectsInvalidLogLevel pins the -log-level vocabulary on every
// command: an unknown level is a usage error (exit 2) naming the valid
// set, fired before any work starts.
func TestCLIRejectsInvalidLogLevel(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping CLI builds in -short mode")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	for _, tool := range []string{"sccsim", "sccbench", "scctrace", "sccdiff", "sccserve"} {
		tool := tool
		t.Run(tool, func(t *testing.T) {
			t.Parallel()
			out, err := exec.Command("go", "run", "./cmd/"+tool, "-log-level", "loud").CombinedOutput()
			if err == nil {
				t.Fatalf("%s accepted -log-level loud:\n%s", tool, out)
			}
			if !strings.Contains(string(out), "exit status 2") {
				t.Errorf("%s did not exit with usage error 2:\n%s", tool, out)
			}
			if !strings.Contains(string(out), "unknown log level") ||
				!strings.Contains(string(out), "debug|info|warn|error") {
				t.Errorf("%s stderr does not name the valid log levels:\n%s", tool, out)
			}
		})
	}
}

// TestCLIRejectsNonPositiveFlightCapacity: a zero or negative flight
// recorder ring would drop every event silently (the SIGQUIT dump and
// /debug/flight would always be empty), so sccserve rejects it up front
// as a usage error instead of serving with a dead recorder.
func TestCLIRejectsNonPositiveFlightCapacity(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping CLI builds in -short mode")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	for _, bad := range []string{"0", "-4"} {
		bad := bad
		t.Run(bad, func(t *testing.T) {
			t.Parallel()
			out, err := exec.Command("go", "run", "./cmd/sccserve",
				"-flight-capacity", bad, "-addr", "127.0.0.1:0").CombinedOutput()
			if err == nil {
				t.Fatalf("sccserve accepted -flight-capacity %s:\n%s", bad, out)
			}
			if !strings.Contains(string(out), "exit status 2") {
				t.Errorf("sccserve did not exit with usage error 2:\n%s", out)
			}
			if !strings.Contains(string(out), "-flight-capacity must be >= 1") {
				t.Errorf("sccserve stderr missing the -flight-capacity message:\n%s", out)
			}
		})
	}
}

// TestCLIRejectsInvalidLogFormat does the same for -log-format.
func TestCLIRejectsInvalidLogFormat(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping CLI builds in -short mode")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	out, err := exec.Command("go", "run", "./cmd/sccsim", "-log-format", "xml").CombinedOutput()
	if err == nil {
		t.Fatalf("sccsim accepted -log-format xml:\n%s", out)
	}
	if !strings.Contains(string(out), "unknown log format") ||
		!strings.Contains(string(out), "text|json") {
		t.Errorf("sccsim stderr does not name the valid log formats:\n%s", out)
	}
}
