package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"sccsim/internal/harness"
	"sccsim/internal/pipeline"
	"sccsim/internal/workloads"
)

// TestMetricsLandBeforeJobEnds pins the ordering a scraping client relies
// on: by the time anyone can see a job terminal, its completion counter
// and its latency observation (with the trace exemplar) are recorded. The
// test releases each run and polls the job's state from its own goroutine
// as fast as it can, checking the metrics the moment the job reads done.
func TestMetricsLandBeforeJobEnds(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 4})
	defer srv.Close()
	release := make(chan struct{})
	srv.SetRunFunc(func(ctx context.Context, w workloads.Workload, cfg pipeline.Config, _ harness.Options) (*harness.RunResult, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return stubResult(w, cfg), nil
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for i := int64(1); i <= 40; i++ {
		st, code := postJob(t, ts, `{"workload":"mcf","max_uops":5000}`)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, code)
		}
		j := srv.lookup(st.ID)
		release <- struct{}{}
		deadline := time.Now().Add(5 * time.Second)
		for {
			state, _, _, _ := j.snapshot()
			if state.terminal() {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %d never finished", i)
			}
			runtime.Gosched()
		}
		if got := srv.met.completed.Value(); got != i {
			t.Fatalf("job %d is done but completed_total = %d", i, got)
		}
		if got := srv.met.latency.Count(); got != i {
			t.Fatalf("job %d is done but the latency histogram holds %d observations", i, got)
		}
	}

	// A cancel that wins the race is counted as canceled, never completed.
	st, _ := postJob(t, ts, `{"workload":"mcf","max_uops":5000}`)
	waitState(t, ts, st.ID, StateRunning)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitState(t, ts, st.ID, StateCanceled)
	if c, d := srv.met.canceled.Value(), srv.met.completed.Value(); c != 1 || d != 40 {
		t.Errorf("after a cancel: canceled_total %d, completed_total %d; want 1 and 40", c, d)
	}
}
