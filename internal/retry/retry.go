// Package retry is the repository's one shared backoff policy: capped
// exponential delays with optional jitter, context-aware sleeping, and
// a Do loop for idempotent operations. The fleet worker's coordinator
// reconnect and its result uploads run through here, so "how we back
// off" is defined once. The trace engine's retries after a replay
// fault do not back off: they re-record a deterministic simulation,
// which no wait can change.
//
// The policy is deliberately tiny: attempt counting and the decision of
// *what* is retryable stay with the caller (the fleet worker retries
// any transport error). Permanent wraps an error to stop a Do loop
// early.
package retry

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"time"
)

// Policy describes a capped exponential backoff sequence: the n-th
// failure (1-based) waits Base << (n-1), clamped to Cap, with up to
// Jitter fraction of the delay added randomly on top.
type Policy struct {
	// Base is the delay after the first failure. Base 0 disables
	// sleeping entirely (tests zero it to make retries instant).
	Base time.Duration
	// Cap bounds the exponential growth. Cap 0 means "Base forever"
	// when Base is set; overflowed shifts clamp here too.
	Cap time.Duration
	// Jitter in [0,1] adds up to that fraction of the computed delay,
	// de-synchronizing a fleet of workers hammering one coordinator.
	// The randomness never reaches the simulator: experiment tables
	// depend only on what runs, not on when.
	Jitter float64
	// Attempts bounds a Do loop: total tries, not retries. 0 means 1.
	Attempts int
}

// jitterRand is the package's own seeded source so callers in the
// simulator's test suite do not perturb the global rand stream.
var (
	jitterMu   sync.Mutex
	jitterRand = rand.New(rand.NewSource(1))
)

// Backoff returns the delay after the n-th consecutive failure
// (1-based). n < 1 is treated as 1. The value includes jitter, so two
// calls with the same n may differ.
func (p Policy) Backoff(n int) time.Duration {
	if p.Base <= 0 {
		return 0
	}
	if n < 1 {
		n = 1
	}
	d := p.Base
	// Shift in steps so a large n cannot overflow into a negative
	// duration before the cap applies.
	for i := 1; i < n; i++ {
		d <<= 1
		if p.Cap > 0 && d >= p.Cap {
			d = p.Cap
			break
		}
		if d <= 0 { // overflow
			d = p.Cap
			if d == 0 {
				d = p.Base
			}
			break
		}
	}
	if p.Cap > 0 && d > p.Cap {
		d = p.Cap
	}
	if p.Jitter > 0 {
		jitterMu.Lock()
		f := jitterRand.Float64()
		jitterMu.Unlock()
		d += time.Duration(f * p.Jitter * float64(d))
	}
	return d
}

// Sleep blocks for the n-th failure's backoff or until ctx is done,
// returning ctx.Err() in the latter case. A zero delay returns
// immediately without consulting the context, so Base 0 policies stay
// allocation- and syscall-free.
func (p Policy) Sleep(ctx context.Context, n int) error {
	d := p.Backoff(n)
	if d <= 0 {
		return nil
	}
	if ctx == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// permanentError marks an error a Do loop must not retry.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent wraps err so Do stops immediately and returns the
// underlying error. A nil err stays nil.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// IsPermanent reports whether err (or anything it wraps) was marked
// with Permanent.
func IsPermanent(err error) bool {
	var pe *permanentError
	return errors.As(err, &pe)
}

// Do runs op until it succeeds, fails permanently, the policy's
// attempts are exhausted, or ctx is cancelled — whichever comes first —
// sleeping the policy's backoff between tries. The returned error is
// op's last error (unwrapped from Permanent) or ctx.Err() when the
// context won the race.
func Do(ctx context.Context, p Policy, op func() error) error {
	attempts := p.Attempts
	if attempts < 1 {
		attempts = 1
	}
	var err error
	for n := 1; ; n++ {
		if ctx != nil {
			if cerr := ctx.Err(); cerr != nil {
				if err != nil {
					return err
				}
				return cerr
			}
		}
		err = op()
		if err == nil {
			return nil
		}
		var pe *permanentError
		if errors.As(err, &pe) {
			return pe.err
		}
		if n >= attempts {
			return err
		}
		if serr := p.Sleep(ctx, n); serr != nil {
			return err
		}
	}
}
