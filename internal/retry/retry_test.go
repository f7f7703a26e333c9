package retry

import (
	"testing"
	"time"
)

type stepClock struct{ now time.Time }

func (c *stepClock) Now() time.Time                       { return c.now }
func (c *stepClock) After(time.Duration) <-chan time.Time { return nil }

func TestBackoffGrowsCapsAndJitters(t *testing.T) {
	base, limit := 10*time.Millisecond, 35*time.Millisecond
	for _, tc := range []struct {
		attempt int
		jitter  float64
		want    time.Duration
	}{
		{1, 0, 5 * time.Millisecond},
		{2, 0, 10 * time.Millisecond},
		{3, 0.5, 26250 * time.Microsecond}, // capped at 35ms: 17.5 + 0.5*17.5
		{9, 0, 17500 * time.Microsecond},
	} {
		if got := Backoff(base, limit, tc.attempt, tc.jitter); got != tc.want {
			t.Errorf("Backoff(attempt=%d, jitter=%v) = %v, want %v", tc.attempt, tc.jitter, got, tc.want)
		}
	}
}

func TestBreakerOpensProbesAndResets(t *testing.T) {
	clk := &stepClock{now: time.Unix(100, 0)}
	b := Breaker{Threshold: 2, Cooldown: time.Minute, Clock: clk}
	b.Record(true)
	if fails, at := b.State(); fails != 1 || !at.IsZero() {
		t.Fatalf("below threshold: fails=%d retryAt=%v", fails, at)
	}
	b.Record(true)
	if _, at := b.State(); !at.Equal(clk.now.Add(time.Minute)) {
		t.Fatalf("open breaker retryAt = %v", at)
	}
	clk.now = clk.now.Add(time.Minute)
	if fails, at := b.State(); fails != 2 || !at.IsZero() {
		t.Fatalf("after cooldown the probe must be admitted: fails=%d retryAt=%v", fails, at)
	}
	b.Record(true) // failed probe re-opens
	if _, at := b.State(); at.IsZero() {
		t.Fatal("failed probe left the breaker closed")
	}
	b.Record(false)
	if fails, at := b.State(); fails != 0 || !at.IsZero() {
		t.Fatalf("success must reset: fails=%d retryAt=%v", fails, at)
	}
	off := Breaker{Clock: clk}
	for i := 0; i < 10; i++ {
		off.Record(true)
	}
	if _, at := off.State(); !at.IsZero() {
		t.Fatal("threshold 0 must never open")
	}
}
