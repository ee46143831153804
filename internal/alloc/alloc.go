// Package alloc turns the single-goroutine allocation strategies of
// Algorithm 1 into a concurrent, lease-based task allocator — the
// serving-side counterpart of the sharded ingest engine.
//
// The replay protocol drives CHOOSE → complete → UPDATE as one
// synchronous loop: exactly one post task is outstanding at any moment.
// A crowdsourcing deployment cannot work that way — a worker who accepts
// a task holds it for seconds or minutes while other workers keep asking
// for tasks. Allocator decouples the two halves of the loop into leases:
//
//	resource, lease, ok := a.Lease(remaining) // CHOOSE, task handed out
//	...                                       // worker tags the resource
//	err := a.Fulfill(lease, post)             // result ingested + UPDATE
//
// or, when the worker walks away,
//
//	err := a.Expire(lease)                    // task re-armed, no post
//
// # Concurrency
//
// All methods are safe for arbitrary goroutines. Strategy state (the
// lazy priority queues of Algorithms 3–5 and their per-resource version
// counters) is guarded by one allocator mutex: Lease runs Choose under
// it, Fulfill/Expire run Update under it, and the engine ingest happens
// outside it, so lease bookkeeping never serializes against the sharded
// ingest path.
//
// N workers can hold outstanding leases simultaneously. The heap
// strategies (FP, MU, FP-MU) support that natively — Choose pops the
// resource and only UPDATE re-pushes it, so two in-flight leases never
// name the same resource and the lazy-PQ version invalidation stays
// correct (a lease's resource is simply absent from the heap until its
// settle-time Update pushes a fresh-keyed entry). Cursor strategies (RR)
// re-read availability instead; the allocator therefore maintains a
// per-resource in-flight count and masks leased resources out of the
// strategy's Env (strategy.Masked), so CHOOSE never hands one resource
// to two workers regardless of the policy.
//
// # Sequential equivalence
//
// Under the sequential discipline — every Lease settled by Fulfill
// before the next Lease — the in-flight mask is always the identity at
// Choose time and the Choose/Update interleaving is exactly the replay
// loop's, so the allocator reproduces the replay loop's decision
// sequence bit for bit (asserted by TestSequentialEquivalence).
package alloc

import (
	"fmt"
	"sync"

	"incentivetag/internal/strategy"
	"incentivetag/internal/tags"
)

// Sink consumes fulfilled post tasks; *engine.Engine implements it.
type Sink interface {
	Ingest(resource int, p tags.Post) error
}

// LeaseID names one outstanding post-task assignment. IDs are unique for
// the allocator's lifetime and never reused, so a settled (fulfilled or
// expired) lease can be detected as such forever.
type LeaseID uint64

// Allocator is a concurrent lease-based task allocator over one
// allocation strategy. Create with New; the zero value is not usable.
type Allocator struct {
	sink  Sink
	strat strategy.Strategy

	mu       sync.Mutex
	inflight []int           // outstanding leases per resource
	leases   map[LeaseID]int // lease → resource
	nextID   LeaseID
	settled  uint64 // fulfilled + expired, for Stats
	expired  uint64
}

// New builds an allocator that drives strat over env and ingests
// fulfilled posts into sink. It installs the in-flight mask into the
// environment and runs the strategy's Init under it, so strat must be
// fresh (not yet initialized) and must not be driven by anyone else
// afterwards.
func New(strat strategy.Strategy, env strategy.Env, sink Sink) *Allocator {
	a := &Allocator{
		sink:     sink,
		strat:    strat,
		inflight: make([]int, env.N()),
		leases:   make(map[LeaseID]int),
	}
	// The mask closure reads inflight only while a.mu is held: Init runs
	// before the allocator is published, and Choose/Update only ever run
	// under the mutex.
	strat.Init(strategy.Masked(env, func(i int) bool { return a.inflight[i] == 0 }))
	return a
}

// Lease asks the strategy which resource the next post task should
// target (Algorithm 1's CHOOSE) and hands out a lease on it. ok is false
// when nothing is allocatable — every candidate is exhausted, leased, or
// costs more than remaining. The resource stays hidden from further
// Leases until the lease settles via Fulfill or Expire.
func (a *Allocator) Lease(remaining int) (resource int, lease LeaseID, ok bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	i, ok := a.strat.Choose(remaining)
	if !ok {
		return -1, 0, false
	}
	a.nextID++
	id := a.nextID
	a.leases[id] = i
	a.inflight[i]++
	return i, id, true
}

// settleLocked removes the lease from all bookkeeping, returning its
// resource. Caller holds a.mu.
func (a *Allocator) settleLocked(lease LeaseID) (int, error) {
	i, ok := a.leases[lease]
	if !ok {
		return -1, fmt.Errorf("alloc: lease %d unknown or already settled", lease)
	}
	delete(a.leases, lease)
	a.inflight[i]--
	a.settled++
	return i, nil
}

// Fulfill settles a lease with the post its worker produced: the post is
// ingested into the sink and the strategy runs Algorithm 1's UPDATE.
// Fulfilling a lease that was never issued, was already fulfilled, or
// was expired returns an error without touching engine or strategy
// state. The strategy is notified even when the ingest itself fails
// (e.g. a WAL write error), so a failed completion re-arms the resource
// instead of permanently removing it; the ingest error is returned.
func (a *Allocator) Fulfill(lease LeaseID, p tags.Post) error {
	a.mu.Lock()
	i, err := a.settleLocked(lease)
	a.mu.Unlock()
	if err != nil {
		return err
	}
	// Ingest outside the allocator mutex (the engine's shard locks
	// provide safety), then UPDATE under it. The order matters — MU's
	// priority key is the post-ingest MA score.
	err = a.sink.Ingest(i, p)
	a.mu.Lock()
	a.strat.Update(i)
	a.mu.Unlock()
	return err
}

// Expire settles a lease without a post — the worker abandoned the task.
// The strategy's UPDATE runs so the resource is re-armed for future
// Leases (the same re-arm contract a failed completion has); no post is
// ingested and no budget is consumed. Expiring an unknown or already
// settled lease returns an error.
func (a *Allocator) Expire(lease LeaseID) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	i, err := a.settleLocked(lease)
	if err != nil {
		return err
	}
	a.expired++
	a.strat.Update(i)
	return nil
}

// Resource returns the resource an outstanding lease targets; ok is
// false for unknown or settled leases.
func (a *Allocator) Resource(lease LeaseID) (int, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	i, ok := a.leases[lease]
	return i, ok
}

// Outstanding returns the number of unsettled leases.
func (a *Allocator) Outstanding() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.leases)
}

// InFlight returns the number of unsettled leases on one resource.
func (a *Allocator) InFlight(resource int) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	if resource < 0 || resource >= len(a.inflight) {
		return 0
	}
	return a.inflight[resource]
}

// Stats is a point-in-time census of the allocator's lease lifecycle.
type Stats struct {
	// Issued counts every lease ever handed out.
	Issued uint64
	// Outstanding counts unsettled leases.
	Outstanding int
	// Fulfilled counts leases settled with a post.
	Fulfilled uint64
	// Expired counts leases settled by abandonment.
	Expired uint64
}

// StatsSnapshot reports the lease lifecycle counters.
func (a *Allocator) StatsSnapshot() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return Stats{
		Issued:      uint64(a.nextID),
		Outstanding: len(a.leases),
		Fulfilled:   a.settled - a.expired,
		Expired:     a.expired,
	}
}
