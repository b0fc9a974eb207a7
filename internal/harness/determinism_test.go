package harness

import (
	"bytes"
	"testing"
)

// TestParallelOutputByteIdentical is the subsystem's core guarantee: a
// sweep scheduled across many workers renders the exact bytes the serial
// run renders, because results are reassembled in submission order and
// every simulation is self-contained.
func TestParallelOutputByteIdentical(t *testing.T) {
	render := func(parallel int) []byte {
		opts := smallOpts(t, "xalancbmk", "lbm", "mcf")
		opts.MaxUops = 20_000
		opts.Parallel = parallel
		f, err := Fig6Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		if f.Timing == nil || len(f.Timing.Jobs) == 0 {
			t.Fatal("sweep lost its telemetry summary")
		}
		if f.Timing.Failed != 0 || f.Timing.Skipped != 0 {
			t.Fatalf("unexpected job failures: %+v", f.Timing)
		}
		var buf bytes.Buffer
		f.Write(&buf)
		return buf.Bytes()
	}
	serial := render(1)
	parallel := render(8)
	if !bytes.Equal(serial, parallel) {
		t.Errorf("parallel output diverged from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
}

// TestPairAndExtDeterminism covers the pair-layout (Fig8) and
// triple-layout (Ext) sweeps the same way.
func TestPairAndExtDeterminism(t *testing.T) {
	opts := smallOpts(t, "xalancbmk", "swaptions")
	opts.MaxUops = 20_000

	renderBoth := func(parallel int) []byte {
		opts.Parallel = parallel
		var buf bytes.Buffer
		f8, err := Fig8Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		f8.Write(&buf)
		ext, err := ExtRun(opts)
		if err != nil {
			t.Fatal(err)
		}
		ext.Write(&buf)
		return buf.Bytes()
	}
	if serial, parallel := renderBoth(1), renderBoth(6); !bytes.Equal(serial, parallel) {
		t.Error("Fig8/Ext parallel output diverged from serial")
	}
}

// TestSimPointSweepParallelByteIdentical extends the byte-identity
// guarantee to the SimPoint sweep: each workload's estimate is one
// scheduler job, and rows come back in submission order, so the rendered
// table is the same bytes at any worker count.
func TestSimPointSweepParallelByteIdentical(t *testing.T) {
	render := func(parallel int) []byte {
		opts := smallOpts(t, "xalancbmk", "mcf", "freqmine")
		opts.MaxUops = 80_000
		opts.Parallel = parallel
		f, err := SimPointSweepRun(opts)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		f.Write(&buf)
		return buf.Bytes()
	}
	serial := render(1)
	parallel := render(4)
	if !bytes.Equal(serial, parallel) {
		t.Errorf("SimPoint sweep output diverged from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
}

// TestSweepTelemetryCountsUops checks the per-run telemetry hook: the
// scheduler must see every committed micro-op the runs report.
func TestSweepTelemetryCountsUops(t *testing.T) {
	opts := smallOpts(t, "xalancbmk", "mcf")
	opts.MaxUops = 20_000
	opts.Parallel = 4
	f, err := Fig8Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if f.Timing.TotalUops == 0 {
		t.Error("sweep telemetry lost the committed-uop counts")
	}
	if f.Timing.Completed != len(f.Timing.Jobs) {
		t.Errorf("completed %d of %d jobs", f.Timing.Completed, len(f.Timing.Jobs))
	}
	for _, js := range f.Timing.Jobs {
		if js.Uops == 0 {
			t.Errorf("job %d (%s) reported no uops", js.Index, js.Name)
		}
		if js.Wall <= 0 {
			t.Errorf("job %d (%s) reported no wall time", js.Index, js.Name)
		}
	}
}

// TestManifestBytesStableAcrossParallelism extends the byte-identity
// guarantee to the observability artifacts: the normalized JSON
// manifests of a sampled sweep (interval series included) are
// byte-identical whether the sweep ran serially or across 8 workers,
// and across repeated runs. Timing and the VCS stamp are the only
// nondeterministic fields, and Normalize strips exactly those.
func TestManifestBytesStableAcrossParallelism(t *testing.T) {
	render := func(parallel int) []byte {
		opts := smallOpts(t, "xalancbmk", "lbm", "mcf")
		opts.MaxUops = 20_000
		opts.Parallel = parallel
		opts.SampleEvery = 5_000
		var buf bytes.Buffer
		opts.OnResult = func(i int, r *RunResult) {
			if len(r.Samples) == 0 {
				t.Errorf("run %d (%s) collected no interval series", i, r.Workload)
			}
			if err := r.Manifest().Normalize().Encode(&buf); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := Fig6Run(opts); err != nil {
			t.Fatal(err)
		}
		if buf.Len() == 0 {
			t.Fatal("OnResult never fired")
		}
		return buf.Bytes()
	}
	serial := render(1)
	again := render(1)
	parallel := render(8)
	if !bytes.Equal(serial, again) {
		t.Error("manifests differ between repeated serial runs")
	}
	if !bytes.Equal(serial, parallel) {
		t.Error("manifests differ between serial and 8-worker sweeps")
	}
}
