package coord

import (
	"sync"
	"time"
)

// breaker is a per-shard circuit breaker. A shard whose legs keep
// failing with down-class errors (connection refused, DRAINING,
// retries exhausted) trips the breaker open; while open, the
// coordinator skips the shard's legs outright instead of paying a
// dial-retry stall per query — dead shards are routed around, the
// breaker/retry half of the partial-result policy. After the cooldown
// one half-open probe is let through: success closes the breaker,
// failure re-opens it for another cooldown.
//
// This mirrors the storage-layer breaker of PR 5 at the cluster level;
// it is separate because the failure unit is a shard process, not a
// blob-store operation, and the probe is a real query leg rather than
// a synthetic health check.
type breaker struct {
	threshold int
	cooldown  time.Duration

	mu        sync.Mutex
	fails     int       // consecutive down-class failures
	openUntil time.Time // zero when closed
	probing   bool      // a half-open probe is in flight
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	if threshold <= 0 {
		threshold = 3
	}
	if cooldown <= 0 {
		cooldown = 2 * time.Second
	}
	return &breaker{threshold: threshold, cooldown: cooldown}
}

// allow reports whether a leg may be sent to the shard. While open it
// returns false until the cooldown elapses, then admits exactly one
// probe at a time; the probe's success/failure decides the next state.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.fails < b.threshold {
		return true
	}
	if time.Now().Before(b.openUntil) || b.probing {
		return false
	}
	b.probing = true
	return true
}

// success records a healthy leg: the breaker closes.
func (b *breaker) success() {
	b.mu.Lock()
	b.fails = 0
	b.probing = false
	b.openUntil = time.Time{}
	b.mu.Unlock()
}

// failure records a down-class leg failure; returns true when this
// failure tripped (or re-tripped) the breaker open.
func (b *breaker) failure() (opened bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	wasProbe := b.probing
	b.probing = false
	b.fails++
	if b.fails >= b.threshold {
		// Report the trip itself and a failed half-open probe; legs that
		// were already in flight when the breaker tripped just push the
		// cooldown out quietly.
		opened = b.fails == b.threshold || wasProbe
		b.openUntil = time.Now().Add(b.cooldown)
	}
	return opened
}

// neutral records a leg that proves nothing about the shard: the
// statement's deadline or cancellation ended it before the shard
// answered. The failure streak is left alone, and a half-open probe
// releases its slot with the breaker held open for another cooldown —
// a black-holed shard must neither close the breaker nor wedge it with
// a probe slot that is never released.
func (b *breaker) neutral() {
	b.mu.Lock()
	if b.probing {
		b.probing = false
		b.openUntil = time.Now().Add(b.cooldown)
	}
	b.mu.Unlock()
}

// open reports whether the breaker currently rejects legs.
func (b *breaker) open() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.fails >= b.threshold && (time.Now().Before(b.openUntil) || b.probing)
}
