package wsrpc

import (
	"errors"
	"sync"
	"time"
)

// ErrCircuitOpen is returned (wrapped in *Error, Temporary=true) when the
// per-endpoint circuit breaker is open and the call was not attempted.
var ErrCircuitOpen = errors.New("wsrpc: circuit breaker open")

// breakerState is the classic three-state machine.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// breaker is a per-endpoint circuit breaker: it trips open after
// Threshold consecutive transport failures, rejects calls for Cooldown,
// then half-opens and lets a single probe through; the probe's outcome
// closes or re-opens it.
type breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time

	mu       sync.Mutex
	state    breakerState
	failures int
	openedAt time.Time
	probing  bool // a half-open probe is in flight
}

func newBreaker(threshold int, cooldown time.Duration, now func() time.Time) *breaker {
	if threshold <= 0 {
		threshold = 5
	}
	if cooldown <= 0 {
		cooldown = 2 * time.Second
	}
	if now == nil {
		now = time.Now
	}
	return &breaker{threshold: threshold, cooldown: cooldown, now: now}
}

// allow reports whether a call may proceed. In the open state it flips to
// half-open once the cooldown has elapsed and admits exactly one probe.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.state = breakerHalfOpen
		b.probing = true
		return true
	default: // half-open: one probe at a time
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// success records a completed call (any response from the server, even a
// protocol fault, proves the endpoint is alive).
func (b *breaker) success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = breakerClosed
	b.failures = 0
	b.probing = false
}

// failure records a transport-level failure; returns true when this
// failure tripped the breaker open.
func (b *breaker) failure() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerHalfOpen {
		// failed probe: straight back to open
		b.state = breakerOpen
		b.openedAt = b.now()
		b.probing = false
		return true
	}
	b.failures++
	if b.state == breakerClosed && b.failures >= b.threshold {
		b.state = breakerOpen
		b.openedAt = b.now()
		return true
	}
	return false
}

// abandon records an attempt the caller's own context ended: it says
// nothing about the endpoint, so it counts as neither success nor
// failure. A half-open probe is released and the breaker goes back to
// open with its cooldown already served, so the next call probes again;
// a closed breaker keeps its failure count.
func (b *breaker) abandon() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerHalfOpen {
		b.state = breakerOpen
		b.probing = false
	}
}

// snapshot returns the current state name (for tests and debugging).
func (b *breaker) snapshot() breakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
