package service

import (
	"context"
	"net/http"
	"runtime"
	"testing"
	"time"
)

// TestShutdownDrains: running jobs finish inside the drain window, queued
// jobs are canceled immediately, new submissions see 503, and the worker
// pool is fully gone.
func TestShutdownDrains(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(Options{Workers: 1, QueueDepth: 4})

	started := make(chan struct{}, 4)
	release := make(chan struct{})
	s.runFlow = func(rn *run) (*JobResult, error) {
		started <- struct{}{}
		select {
		case <-release:
		case <-rn.ctx.Done():
			return nil, rn.ctx.Err()
		}
		return stubResult(rn), nil
	}

	_, stRun := postJob(t, s, jobBody(t, "acme", 1)) // running
	<-started
	_, stQueued := postJob(t, s, jobBody(t, "acme", 2)) // still queued

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- s.Shutdown(ctx)
	}()

	// Draining: liveness stays 200 (the process is healthy, just
	// stopping), readiness goes 503, and new submissions bounce with 503.
	waitFor(t, func() bool { return s.Stats().Draining })
	if code, _ := do(t, s, "GET", "/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz while draining = %d, want 200 (liveness)", code)
	}
	if code, _ := do(t, s, "GET", "/readyz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d, want 503", code)
	}
	if code, _ := postJobCode(t, s, jobBody(t, "acme", 3)); code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d, want 503", code)
	}

	// The queued job was canceled by the drain, not run.
	waitState(t, s, stQueued.ID, StateCanceled)

	// The running job is allowed to finish.
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("Shutdown = %v, want clean drain", err)
	}
	waitState(t, s, stRun.ID, StateDone)
	if n := s.FlowRuns(); n != 1 {
		t.Fatalf("flow runs = %d, want 1 (queued job must not run during drain)", n)
	}
	// Shutdown is idempotent.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("second Shutdown = %v", err)
	}
	waitGoroutines(t, before)
}

// TestShutdownDeadlineCancelsRunning: when the drain window expires, the
// still-running flow's context is canceled and Shutdown returns the
// deadline error instead of hanging.
func TestShutdownDeadlineCancelsRunning(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(Options{Workers: 1})

	started := make(chan struct{}, 1)
	s.runFlow = func(rn *run) (*JobResult, error) {
		started <- struct{}{}
		<-rn.ctx.Done() // refuses to finish until canceled
		return nil, rn.ctx.Err()
	}
	_, st := postJob(t, s, jobBody(t, "acme", 1))
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Shutdown = %v, want context.DeadlineExceeded", err)
	}
	waitState(t, s, st.ID, StateCanceled)
	waitGoroutines(t, before)
}

func postJobCode(t *testing.T, s *Server, body []byte) (int, []byte) {
	t.Helper()
	return do(t, s, "POST", "/v1/jobs", body)
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition never became true")
}
