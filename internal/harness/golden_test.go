package harness

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sccsim/internal/scc"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestManifestDigestsGolden pins the simulated statistics of every
// workload under the baseline, every rung of the Figure 6 ladder and the
// extension sweep's configurations: one sha256 per normalized manifest, at
// a reduced budget. A change meant to move only host time (a faster data
// structure, fewer copies) must leave this file untouched; a change that
// moves simulated results regenerates it with
//
//	go test ./internal/harness -run TestManifestDigestsGolden -update
//
// and says why in its description.
func TestManifestDigestsGolden(t *testing.T) {
	opts := Options{MaxUops: 20_000}
	nw := len(opts.workloads())
	var got bytes.Buffer
	digest := func(sweep string, config func(i int) string) func(int, *RunResult) {
		return func(i int, r *RunResult) {
			var buf bytes.Buffer
			if err := r.Manifest().Normalize().Encode(&buf); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&got, "%s %-14s %-13s %x\n", sweep, config(i), r.Workload, sha256.Sum256(buf.Bytes()))
		}
	}

	levels := scc.Levels()
	opts.OnResult = digest("fig6", func(i int) string { return levels[i/nw].String() })
	if _, err := Fig6Run(opts); err != nil {
		t.Fatal(err)
	}
	extConfigs := []string{"baseline", "paper", "extension"}
	opts.OnResult = digest("ext", func(i int) string { return extConfigs[i%3] })
	if _, err := ExtRun(opts); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join("testdata", "manifest_digests.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d manifest digests, golden has %d", len(gotLines)-1, len(wantLines)-1)
	}
	moved := 0
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			if moved < 10 {
				t.Errorf("manifest changed:\n got %s\nwant %s", gotLines[i], wantLines[i])
			}
			moved++
		}
	}
	t.Fatalf("%d of %d normalized manifests moved", moved, len(gotLines)-1)
}
