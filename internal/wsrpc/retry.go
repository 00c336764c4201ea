package wsrpc

import (
	"context"
	"math/rand"
	"sync/atomic"
	"time"
)

// RetryPolicy controls the exponential-backoff retry loop of the hardened
// transport. Retries only ever fire for idempotent routes on Temporary
// errors; everything else surfaces after the first attempt. The delay
// doubles per retry up to MaxDelay, and each delay d is drawn from
// [0.75d, 1.25d]. The zero value means "use defaults" (4 attempts, 25ms
// base, 1s cap); set MaxAttempts to 1 to disable retries entirely.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries including the first
	// (default 4; 1 disables retries; negative values behave like 1).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry (default 25ms).
	BaseDelay time.Duration
	// MaxDelay caps the grown backoff (default 1s).
	MaxDelay time.Duration

	// Seed, when nonzero, makes the jitter sequence deterministic for
	// seeded fault-injection tests. A RetryPolicy is shared by every
	// request a client retries, across goroutines — an earlier revision
	// kept a *rand.Rand here, which is not goroutine-safe and either
	// corrupted its state under concurrent joins or (mutex-guarded)
	// serialized all retrying requests on one lock. Instead each call
	// derives its value lock-free from Seed and an atomic call counter
	// (SplitMix64, whose increment 0x9E3779B97F4A7C15 decorrelates
	// consecutive counter values).
	Seed uint64

	calls atomic.Uint64
}

func (p *RetryPolicy) attempts() int {
	if p == nil || p.MaxAttempts == 0 {
		return 4
	}
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// delay computes the backoff before retry number retry (0-based), honoring
// a server Retry-After hint as a floor — but never sleeping past MaxDelay,
// so an overloaded server advertising a long recovery horizon makes the
// client give up quickly instead of stalling the caller.
func (p *RetryPolicy) delay(retry int, hint time.Duration) time.Duration {
	base, maxd := 25*time.Millisecond, time.Second
	if p != nil {
		if p.BaseDelay > 0 {
			base = p.BaseDelay
		}
		if p.MaxDelay > 0 {
			maxd = p.MaxDelay
		}
	}
	d := float64(base)
	for i := 0; i < retry; i++ {
		d *= 2
		if d >= float64(maxd) {
			d = float64(maxd)
			break
		}
	}
	// spread d over [0.75d, 1.25d] so synchronized clients don't
	// re-collide on the same tick
	d *= 1 + 0.5*(p.rand()-0.5)
	out := time.Duration(d)
	if out > maxd {
		out = maxd
	}
	if hint > out {
		out = hint
	}
	if out > maxd {
		out = maxd
	}
	return out
}

// rand returns the next jitter value in [0, 1). Unseeded policies use
// the global math/rand source (goroutine-safe); seeded ones walk a
// lock-free deterministic sequence.
func (p *RetryPolicy) rand() float64 {
	if p == nil || p.Seed == 0 {
		return rand.Float64()
	}
	x := p.Seed + p.calls.Add(1)*0x9E3779B97F4A7C15
	return float64(splitmix64(x)>>11) / (1 << 53)
}

// splitmix64 is the finalizer of Vigna's SplitMix64 generator: a cheap,
// allocation-free bijective mixer good enough for backoff jitter.
func splitmix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// sleepCtx waits for d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
