package simnet

import "time"

// TokenBucket models a rate-limited resource (CPU quota, bandwidth) in
// virtual time. Work units are reserved in FIFO order: Reserve returns the
// instant at which the reserved work may execute, which is what a quota
// throttler exposes to its message queue.
//
// The bucket refills continuously at Rate units per second up to Burst
// units. Reservations may drive the bucket balance negative, which pushes
// the ready time of subsequent reservations further into the future —
// exactly the queueing behaviour of Avalanche's cpuThrottler.
//
// A bucket is a plain value: owners checkpoint it by copying *b and restore
// by assigning the copy back through the pointer (see package snapshot).
type TokenBucket struct {
	rate     float64 // units per virtual second
	burst    float64
	balance  float64
	lastFill time.Duration
}

// NewTokenBucket creates a bucket that starts full.
func NewTokenBucket(rate, burst float64) *TokenBucket {
	if rate <= 0 {
		panic("simnet: token bucket rate must be positive")
	}
	if burst <= 0 {
		burst = rate
	}
	return &TokenBucket{rate: rate, burst: burst, balance: burst}
}

// Rate returns the refill rate in units per second.
func (b *TokenBucket) Rate() float64 { return b.rate }

func (b *TokenBucket) refill(now time.Duration) {
	if now <= b.lastFill {
		return
	}
	b.balance += b.rate * (now - b.lastFill).Seconds()
	if b.balance > b.burst {
		b.balance = b.burst
	}
	b.lastFill = now
}

// Reserve consumes cost units and returns the virtual instant at which the
// work may run. If tokens are available the work runs at now; otherwise the
// ready time is delayed by the deficit divided by the refill rate.
func (b *TokenBucket) Reserve(now time.Duration, cost float64) time.Duration {
	b.refill(now)
	b.balance -= cost
	if b.balance >= 0 {
		return now
	}
	deficit := -b.balance
	wait := time.Duration(deficit / b.rate * float64(time.Second))
	return now + wait
}

// Backlog returns how far behind the bucket currently is, i.e. the delay a
// zero-cost reservation made at now would experience.
func (b *TokenBucket) Backlog(now time.Duration) time.Duration {
	b.refill(now)
	if b.balance >= 0 {
		return 0
	}
	return time.Duration(-b.balance / b.rate * float64(time.Second))
}

// Available reports the current token balance (possibly negative).
func (b *TokenBucket) Available(now time.Duration) float64 {
	b.refill(now)
	return b.balance
}
