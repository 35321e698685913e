package service

import (
	"context"
	"errors"
	"math/rand"
	"time"

	"tpilayout/internal/supervise"
)

// The retry policy for transient failures. A level that panics (isolated
// to a *StageError wrapping supervise.PanicError) or exceeds its ATPG
// deadline is retried with full-jitter exponential backoff; validation
// errors and cancellations never retry.
const (
	// retryMaxAttempts bounds how many times one level may run, counting
	// the first attempt.
	retryMaxAttempts = 3
	// retryBaseDelay is the backoff before the first retry; it doubles per
	// attempt up to retryMaxDelay.
	retryBaseDelay = 100 * time.Millisecond
	retryMaxDelay  = 5 * time.Second
	// retryJobBudget caps the TOTAL retries across all levels of one run:
	// a job whose every level keeps crashing fails after this many extra
	// attempts instead of grinding the pool forever.
	retryJobBudget = 8
)

// backoff returns the sleep before retry number retry (1-based). The
// sleep is uniform in (0, delay] (full jitter), so retrying levels do not
// stampede in lockstep. Options.retryDelay, when set, replaces the
// schedule with a fixed sleep.
func (s *Server) backoff(retry int) time.Duration {
	if s.opt.retryDelay > 0 {
		return s.opt.retryDelay
	}
	d := retryBaseDelay
	for i := 1; i < retry && d < retryMaxDelay; i++ {
		d *= 2
	}
	d = min(d, retryMaxDelay)
	return time.Duration(1 + rand.Int63n(int64(d)))
}

// transientError reports whether a level failure is worth retrying:
// an isolated panic or an expired deadline, but never a cancellation
// (the client is gone) or a deterministic validation/stage failure
// (identical inputs would fail identically).
func transientError(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) {
		return false
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	var pe *supervise.PanicError
	return errors.As(err, &pe)
}

// sleepCtx sleeps for d or until ctx is canceled, whichever comes
// first; it reports whether the full sleep elapsed. This is what makes
// DELETE on a job in backoff free its worker immediately: the run's
// context cancels and the timer is abandoned.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
