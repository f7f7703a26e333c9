// Package retry is the one jittered-exponential backoff and
// consecutive-failure circuit breaker in the module. The wire client
// retries a struggling shard worker with it, and both the wire client
// and the reload manager (a broken snapshot source) fail fast through
// its breaker; time comes from an injectable Clock so their tests drive
// cooldowns without sleeping.
package retry

import (
	"math"
	"sync"
	"time"
)

// Clock abstracts time so tests can drive backoff sleeps and breaker
// cooldowns deterministically.
type Clock interface {
	Now() time.Time
	After(d time.Duration) <-chan time.Time
}

// System is the real clock.
var System Clock = systemClock{}

type systemClock struct{}

func (systemClock) Now() time.Time                         { return time.Now() }
func (systemClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Backoff returns the delay before retry attempt (1-based): nominally
// base·2^(attempt-1) capped at limit, of which half is kept and half is
// scaled by jitter in [0, 1) — enough spread that routers retrying
// against one struggling worker do not move in lockstep, while the
// minimum wait still grows exponentially. The caller supplies the jitter
// sample so it keeps control of its randomness source (seeded in the
// wire client's tests).
func Backoff(base, limit time.Duration, attempt int, jitter float64) time.Duration {
	nominal := math.Min(float64(base)*math.Pow(2, float64(attempt-1)), float64(limit))
	return time.Duration(nominal/2 + jitter*nominal/2)
}

// Breaker opens after Threshold consecutive failures and then fails
// fast for Cooldown; the first call after the cooldown is admitted as a
// probe (half-open) whose outcome re-opens or resets it. Threshold <= 0
// never opens. Safe for concurrent use; configure the fields before the
// first call.
type Breaker struct {
	Threshold int
	Cooldown  time.Duration
	Clock     Clock

	mu        sync.Mutex
	fails     int
	openUntil time.Time
}

// State reports the consecutive failures since the last success and,
// while the breaker is open, when it next admits a probe; retryAt is
// zero when calls are admitted.
func (b *Breaker) State() (fails int, retryAt time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.Clock.Now().Before(b.openUntil) {
		return b.fails, b.openUntil
	}
	return b.fails, time.Time{}
}

// Record folds one call's outcome into the breaker.
func (b *Breaker) Record(failed bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !failed {
		b.fails, b.openUntil = 0, time.Time{}
		return
	}
	b.fails++
	if b.Threshold > 0 && b.fails >= b.Threshold {
		b.openUntil = b.Clock.Now().Add(b.Cooldown)
	}
}
