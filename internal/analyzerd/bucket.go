package analyzerd

import (
	"math"
	"time"
)

// TokenBucket is the token-bucket rate limiter shared by the analyzer
// daemon (one per client) and the fleet router (one per tenant). It
// holds up to burst tokens, refills at rate tokens per second of elapsed
// clock time, and every admitted submission spends one token.
type TokenBucket struct {
	rate     float64
	burst    float64
	tokens   float64
	refilled time.Time
}

// NewTokenBucket returns a full bucket refilling at rate tokens per
// second. burst <= 0 selects the default depth: rate rounded up, at
// least 1.
func NewTokenBucket(rate float64, burst int, now time.Time) TokenBucket {
	if burst <= 0 {
		burst = max(1, int(math.Ceil(rate)))
	}
	return TokenBucket{rate: rate, burst: float64(burst), tokens: float64(burst), refilled: now}
}

// Take refills the bucket for the time elapsed since the previous call
// and spends one token if a whole one is available.
func (b *TokenBucket) Take(now time.Time) bool {
	if dt := now.Sub(b.refilled).Seconds(); dt > 0 {
		b.tokens = min(b.burst, b.tokens+dt*b.rate)
	}
	b.refilled = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}
