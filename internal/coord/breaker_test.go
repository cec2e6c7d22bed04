package coord

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"blendhouse/internal/core"
	"blendhouse/pkg/client"
)

func TestBreakerOpensAtThreshold(t *testing.T) {
	b := newBreaker(3, time.Hour)
	for i := 0; i < 2; i++ {
		if tripped := b.failure(); tripped {
			t.Fatalf("tripped after %d failures, threshold is 3", i+1)
		}
		if !b.allow() {
			t.Fatalf("closed after %d failures, threshold is 3", i+1)
		}
	}
	if !b.failure() {
		t.Fatal("third failure must report the trip")
	}
	if b.allow() {
		t.Fatal("open breaker must not allow")
	}
	if !b.open() {
		t.Fatal("open() must report open")
	}
}

func TestBreakerSuccessResets(t *testing.T) {
	b := newBreaker(3, time.Hour)
	b.failure()
	b.failure()
	b.success()
	b.failure()
	b.failure()
	if b.open() {
		t.Fatal("success must reset the consecutive-failure count")
	}
}

func TestBreakerHalfOpenProbe(t *testing.T) {
	b := newBreaker(2, 30*time.Millisecond)
	b.failure()
	b.failure()
	if b.allow() {
		t.Fatal("breaker should be open")
	}
	time.Sleep(40 * time.Millisecond)
	if !b.allow() {
		t.Fatal("cooldown elapsed: one probe must be allowed")
	}
	if b.allow() {
		t.Fatal("only one half-open probe at a time")
	}
	// Probe fails: breaker re-opens for another cooldown.
	if !b.failure() {
		t.Fatal("failed probe must report a re-trip")
	}
	if b.allow() {
		t.Fatal("breaker must re-open after a failed probe")
	}
	time.Sleep(40 * time.Millisecond)
	if !b.allow() {
		t.Fatal("second probe after second cooldown")
	}
	// Probe succeeds: breaker closes fully.
	b.success()
	if !b.allow() || !b.allow() {
		t.Fatal("successful probe must close the breaker for all callers")
	}
}

// blackHoleShard starts a shard endpoint that accepts every request
// and never answers (the handler holds until the request's context
// ends), and a coordinator whose only shard it is.
func blackHoleShard(t *testing.T, threshold int, cooldown time.Duration) (*httptest.Server, *Coordinator, *shard) {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(_ http.ResponseWriter, r *http.Request) {
		// The server notices a client hang-up only once the body is read.
		_, _ = io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	}))
	t.Cleanup(srv.Close)
	c, err := New(Config{
		Shards:           []string{srv.URL},
		MaxRetries:       1,
		RetryBase:        time.Millisecond,
		BreakerThreshold: threshold,
		BreakerCooldown:  cooldown,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return srv, c, c.shards[0]
}

// timedOutLeg sends one leg under a short statement deadline.
func timedOutLeg(t *testing.T, c *Coordinator, s *shard) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	lr := c.leg(ctx, s, "SELECT 1", false, core.QueryOptions{}, nil)
	if lr.skipped {
		t.Fatal("leg skipped: breaker unexpectedly open")
	}
	if !errors.Is(lr.err, client.ErrTimeout) {
		t.Fatalf("leg to a black-holed shard: err = %v, want client.ErrTimeout", lr.err)
	}
}

// A leg that times out proves nothing about the shard: it must not
// reset the failure streak, so the next down-class failure still
// trips the breaker.
func TestBreakerTimeoutDoesNotResetStreak(t *testing.T) {
	srv, c, s := blackHoleShard(t, 3, time.Hour)
	s.brk.failure()
	s.brk.failure()
	timedOutLeg(t, c, s)
	srv.Close() // the shard's port now refuses connections
	lr := c.leg(context.Background(), s, "SELECT 1", false, core.QueryOptions{}, nil)
	if !lr.down() {
		t.Fatalf("leg to a closed port: err = %v, want a down-class failure", lr.err)
	}
	if !s.brk.open() {
		t.Fatal("threshold reached (2 failures, a timeout, 1 refusal) but the breaker is closed")
	}
}

// A half-open probe that times out must leave the breaker open and
// release its probe slot, so the next cooldown admits a fresh probe.
func TestBreakerTimedOutProbeStaysOpen(t *testing.T) {
	_, c, s := blackHoleShard(t, 2, 80*time.Millisecond)
	s.brk.failure()
	s.brk.failure()
	time.Sleep(100 * time.Millisecond)
	timedOutLeg(t, c, s) // admitted as the half-open probe
	if !s.brk.open() {
		t.Fatal("a timed-out probe closed the breaker")
	}
	time.Sleep(100 * time.Millisecond)
	if !s.brk.allow() {
		t.Fatal("the next cooldown must admit a new probe")
	}
	if s.brk.allow() {
		t.Fatal("only one half-open probe at a time")
	}
}
