package obs

import (
	"os"
	"path/filepath"
	"testing"
)

// TestStartProfilesWritesFiles: both profiles land on disk non-empty
// after stop — the contract the CLIs' -cpuprofile/-memprofile
// flags rely on.
func TestStartProfilesWritesFiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	stop, err := StartProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile has something to record.
	x := 0
	for i := 0; i < 1_000_000; i++ {
		x += i * i
	}
	_ = x
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Errorf("profile missing: %v", err)
			continue
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}
}

// TestStartProfilesDisabled: empty paths are a no-op on both ends.
func TestStartProfilesDisabled(t *testing.T) {
	stop, err := StartProfiles("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

// TestStartProfilesBadPath: an uncreatable profile path fails fast at
// start, not at exit.
func TestStartProfilesBadPath(t *testing.T) {
	if _, err := StartProfiles(filepath.Join(t.TempDir(), "no", "such", "dir", "cpu.prof"), ""); err == nil {
		t.Error("want error for uncreatable cpu profile path")
	}
}
