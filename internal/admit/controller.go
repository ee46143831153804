package admit

import (
	"context"
	"sync"
	"time"
)

// Class partitions requests by what overload should do to them.
type Class int

const (
	// Interactive requests are the operator-facing loop — allocate,
	// complete, expire, topk, search. They get a small bounded wait for
	// a slot before being shed: allocation latency is the SLO.
	Interactive Class = iota
	// Bulk requests are the crowd's batch ingest. They are shed first:
	// no queueing, ever — a bulk request either gets a token and a free
	// slot immediately or is pushed back with 429 + Retry-After.
	Bulk

	numClasses
)

// String returns the label used in metrics ("interactive", "bulk").
func (c Class) String() string {
	if c == Bulk {
		return "bulk"
	}
	return "interactive"
}

// Outcome is an admission decision.
type Outcome int

const (
	// Admitted requests hold a slot until Release.
	Admitted Outcome = iota
	// Shed requests were refused immediately (no token, no slot, or a
	// full queue) and should retry after Result.RetryAfter.
	Shed
	// TimedOut requests waited the bounded queue time (or their context
	// died) without a slot freeing.
	TimedOut

	numOutcomes
)

// String returns the label used in metrics.
func (o Outcome) String() string {
	switch o {
	case Shed:
		return "shed"
	case TimedOut:
		return "timed_out"
	default:
		return "admitted"
	}
}

// Result is one admission decision. RetryAfter is meaningful for Shed
// and TimedOut: how long the client should back off, derived from the
// token bucket's refill when one is configured.
type Result struct {
	Outcome    Outcome
	RetryAfter time.Duration
}

// RetryAfterSeconds renders the backoff as a Retry-After header value:
// whole seconds, rounded up, at least 1 (0 would mean "now", which is
// exactly wrong for a shed request).
func (r Result) RetryAfterSeconds() int {
	secs := int((r.RetryAfter + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// Config assembles a Controller. The zero value admits everything
// (no rate limit, no concurrency limit) while still tracking gauges
// and counters.
type Config struct {
	// Rate is the bulk admission rate in requests/second; each bulk
	// request consumes one token. 0 (or negative) disables the bucket.
	Rate float64
	// Burst is the bucket capacity (0 = one second's worth, min 1).
	Burst int
	// MaxInFlight bounds concurrently admitted requests across both
	// classes. 0 = unlimited (the queue is then never used).
	MaxInFlight int
	// Queue is the interactive wait-queue capacity (0 = DefaultQueue
	// when MaxInFlight is set; negative = no queue, shed immediately).
	Queue int
	// QueueWait bounds how long a queued interactive request waits for
	// a slot before timing out (0 = DefaultQueueWait).
	QueueWait time.Duration
}

// Defaults for the bounded interactive wait.
const (
	DefaultQueue     = 64
	DefaultQueueWait = 250 * time.Millisecond
)

// waiter is one queued interactive request. grant is buffered so
// Release never blocks handing a slot to a waiter that is concurrently
// timing out.
type waiter struct {
	grant chan struct{}
}

// Controller is the admission gate: token-bucket rate limiting for
// bulk plus a shared concurrency limit with a bounded interactive
// priority queue. Admit/Release are safe for arbitrary concurrency.
//
// Priority discipline (the fairness contract, asserted by tests):
//
//   - bulk never queues — with the limit reached it is shed on the
//     spot, so interactive traffic can never sit behind bulk;
//   - a freed slot always goes to the oldest interactive waiter before
//     any new admission, and bulk is only admitted directly when no
//     interactive request is waiting — so bulk can never starve
//     interactive either.
type Controller struct {
	bucket    *TokenBucket
	max       int
	queueCap  int
	queueWait time.Duration

	mu       sync.Mutex
	inflight [numClasses]int
	waiters  []*waiter // FIFO, interactive only
	counts   [numClasses][numOutcomes]uint64
}

// NewController builds the admission gate from cfg (see Config for the
// zero-value semantics).
func NewController(cfg Config) *Controller {
	queueCap := cfg.Queue
	if queueCap == 0 {
		queueCap = DefaultQueue
	} else if queueCap < 0 {
		queueCap = 0
	}
	wait := cfg.QueueWait
	if wait <= 0 {
		wait = DefaultQueueWait
	}
	return &Controller{
		bucket:    NewTokenBucket(cfg.Rate, cfg.Burst),
		max:       cfg.MaxInFlight,
		queueCap:  queueCap,
		queueWait: wait,
	}
}

// retryHintLocked is the backoff to hand a rejected request: the
// bucket's next-token time when one is configured (so every
// Retry-After a client sees is derived from the same refill clock),
// otherwise the queue wait — by then a slot has either freed or the
// server is genuinely saturated and the client should stay away.
func (c *Controller) retryHint() time.Duration {
	if c.bucket != nil {
		if d := c.bucket.NextToken(); d > 0 {
			return d
		}
	}
	return c.queueWait
}

// Admit decides one request. Admitted requests MUST Release exactly
// once; Shed/TimedOut requests hold nothing. ctx cancellation while
// queued counts as TimedOut — the disconnected client never occupies
// a slot.
func (c *Controller) Admit(ctx context.Context, class Class) Result {
	if class == Bulk {
		if ok, retry := c.bucket.Take(); !ok {
			c.mu.Lock()
			c.counts[Bulk][Shed]++
			c.mu.Unlock()
			return Result{Outcome: Shed, RetryAfter: retry}
		}
	}
	c.mu.Lock()
	total := c.inflight[Interactive] + c.inflight[Bulk]
	// Direct admission only when there is a free slot AND nobody is
	// queued: an interactive waiter has strict priority over any new
	// arrival of either class.
	if c.max <= 0 || (total < c.max && len(c.waiters) == 0) {
		c.inflight[class]++
		c.counts[class][Admitted]++
		c.mu.Unlock()
		return Result{Outcome: Admitted}
	}
	if class == Bulk || c.queueCap == 0 || len(c.waiters) >= c.queueCap {
		c.counts[class][Shed]++
		c.mu.Unlock()
		return Result{Outcome: Shed, RetryAfter: c.retryHint()}
	}
	w := &waiter{grant: make(chan struct{}, 1)}
	c.waiters = append(c.waiters, w)
	c.mu.Unlock()

	timer := time.NewTimer(c.queueWait)
	defer timer.Stop()
	select {
	case <-w.grant:
		c.mu.Lock()
		c.counts[Interactive][Admitted]++
		c.mu.Unlock()
		return Result{Outcome: Admitted}
	case <-ctx.Done():
	case <-timer.C:
	}
	// Timed out (or the client hung up). Remove ourselves — unless a
	// grant raced in while we were giving up, in which case the slot is
	// already ours and the admission stands.
	c.mu.Lock()
	for i, q := range c.waiters {
		if q == w {
			c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
			c.counts[Interactive][TimedOut]++
			c.mu.Unlock()
			return Result{Outcome: TimedOut, RetryAfter: c.retryHint()}
		}
	}
	c.counts[Interactive][Admitted]++
	c.mu.Unlock()
	return Result{Outcome: Admitted}
}

// Release returns an admitted request's slot. A freed slot is handed
// to the oldest interactive waiter, if any, before becoming generally
// available.
func (c *Controller) Release(class Class) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.inflight[class] <= 0 {
		panic("admit: Release without a matching Admit")
	}
	c.inflight[class]--
	if len(c.waiters) == 0 {
		return
	}
	if c.max > 0 && c.inflight[Interactive]+c.inflight[Bulk] >= c.max {
		return // another class's slot is still pinned; wake nobody
	}
	w := c.waiters[0]
	c.waiters = c.waiters[1:]
	c.inflight[Interactive]++ // the slot transfers to the waiter here
	w.grant <- struct{}{}
}

// Saturated reports whether the interactive queue is at capacity — the
// /healthz "overloaded" condition: new interactive work is being shed,
// not just delayed.
func (c *Controller) Saturated() bool {
	if c.queueCap == 0 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.waiters) >= c.queueCap
}

// ClassStats is one class's admission census.
type ClassStats struct {
	Admitted uint64 `json:"admitted"`
	Shed     uint64 `json:"shed"`
	TimedOut uint64 `json:"timed_out"`
	InFlight int    `json:"in_flight"`
}

// Stats is the controller's full census: per-class outcome counters
// and the live gauges (in-flight, queue depth).
type Stats struct {
	Interactive ClassStats `json:"interactive"`
	Bulk        ClassStats `json:"bulk"`
	QueueDepth  int        `json:"queue_depth"`
	QueueCap    int        `json:"queue_cap"`
	MaxInFlight int        `json:"max_in_flight"`
}

// StatsSnapshot returns a consistent point-in-time census.
func (c *Controller) StatsSnapshot() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Interactive: ClassStats{
			Admitted: c.counts[Interactive][Admitted],
			Shed:     c.counts[Interactive][Shed],
			TimedOut: c.counts[Interactive][TimedOut],
			InFlight: c.inflight[Interactive],
		},
		Bulk: ClassStats{
			Admitted: c.counts[Bulk][Admitted],
			Shed:     c.counts[Bulk][Shed],
			TimedOut: c.counts[Bulk][TimedOut],
			InFlight: c.inflight[Bulk],
		},
		QueueDepth:  len(c.waiters),
		QueueCap:    c.queueCap,
		MaxInFlight: c.max,
	}
}
