package admit

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestZeroConfigAdmitsEverything(t *testing.T) {
	c := NewController(Config{})
	for i := 0; i < 100; i++ {
		if res := c.Admit(context.Background(), Bulk); res.Outcome != Admitted {
			t.Fatalf("bulk %d: %v", i, res.Outcome)
		}
		if res := c.Admit(context.Background(), Interactive); res.Outcome != Admitted {
			t.Fatalf("interactive %d: %v", i, res.Outcome)
		}
	}
	st := c.StatsSnapshot()
	if st.Bulk.InFlight != 100 || st.Interactive.InFlight != 100 {
		t.Fatalf("in-flight gauges %d/%d, want 100/100", st.Bulk.InFlight, st.Interactive.InFlight)
	}
	for i := 0; i < 100; i++ {
		c.Release(Bulk)
		c.Release(Interactive)
	}
	st = c.StatsSnapshot()
	if st.Bulk.InFlight != 0 || st.Interactive.InFlight != 0 {
		t.Fatalf("in-flight gauges %d/%d after release, want 0/0", st.Bulk.InFlight, st.Interactive.InFlight)
	}
}

func TestBulkShedWhenBucketEmpty(t *testing.T) {
	c := NewController(Config{Rate: 1, Burst: 2})
	for i := 0; i < 2; i++ {
		if res := c.Admit(context.Background(), Bulk); res.Outcome != Admitted {
			t.Fatalf("burst take %d: %v", i, res.Outcome)
		}
	}
	res := c.Admit(context.Background(), Bulk)
	if res.Outcome != Shed {
		t.Fatalf("drained bucket admitted bulk: %v", res.Outcome)
	}
	if res.RetryAfter <= 0 || res.RetryAfter > time.Second {
		t.Fatalf("retry hint %v outside (0, 1s]", res.RetryAfter)
	}
	// Interactive is never charged against the bulk bucket.
	if res := c.Admit(context.Background(), Interactive); res.Outcome != Admitted {
		t.Fatalf("interactive shed by the bulk bucket: %v", res.Outcome)
	}
}

// TestBulkNeverQueues: with every slot taken, bulk is shed on the spot
// — it never waits, so interactive can never be stuck behind it.
func TestBulkNeverQueues(t *testing.T) {
	c := NewController(Config{MaxInFlight: 1, Queue: 4, QueueWait: time.Minute})
	if res := c.Admit(context.Background(), Interactive); res.Outcome != Admitted {
		t.Fatalf("first admit: %v", res.Outcome)
	}
	start := time.Now()
	res := c.Admit(context.Background(), Bulk)
	if res.Outcome != Shed {
		t.Fatalf("bulk with slots full: %v, want Shed", res.Outcome)
	}
	if waited := time.Since(start); waited > 100*time.Millisecond {
		t.Fatalf("bulk shed took %v — it queued", waited)
	}
	if st := c.StatsSnapshot(); st.QueueDepth != 0 {
		t.Fatalf("queue depth %d after bulk shed, want 0", st.QueueDepth)
	}
}

// TestInteractivePriorityOverBulk: a freed slot goes to the queued
// interactive request even when bulk arrivals keep hammering — bulk
// cannot starve interactive.
func TestInteractivePriorityOverBulk(t *testing.T) {
	c := NewController(Config{MaxInFlight: 1, Queue: 4, QueueWait: 5 * time.Second})
	if res := c.Admit(context.Background(), Bulk); res.Outcome != Admitted {
		t.Fatalf("first admit: %v", res.Outcome)
	}

	got := make(chan Outcome, 1)
	go func() { got <- c.Admit(context.Background(), Interactive).Outcome }()
	// Wait for the waiter to be queued.
	deadline := time.Now().Add(2 * time.Second)
	for c.StatsSnapshot().QueueDepth == 0 {
		if time.Now().After(deadline) {
			t.Fatal("interactive request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// A storm of bulk arrivals while interactive waits: all shed, none
	// admitted past the waiter.
	for i := 0; i < 50; i++ {
		if res := c.Admit(context.Background(), Bulk); res.Outcome != Shed {
			t.Fatalf("bulk arrival %d admitted past a queued interactive request: %v", i, res.Outcome)
		}
	}

	c.Release(Bulk) // the freed slot must go to the waiter, not to bulk
	if outcome := <-got; outcome != Admitted {
		t.Fatalf("queued interactive request: %v, want Admitted", outcome)
	}
	st := c.StatsSnapshot()
	if st.Interactive.InFlight != 1 || st.Bulk.InFlight != 0 {
		t.Fatalf("in-flight %+v after slot transfer", st)
	}
	if res := c.Admit(context.Background(), Bulk); res.Outcome != Shed {
		t.Fatalf("bulk admitted while the transferred slot is held: %v", res.Outcome)
	}
	c.Release(Interactive)
	if res := c.Admit(context.Background(), Bulk); res.Outcome != Admitted {
		t.Fatalf("bulk refused with a free slot and empty queue: %v", res.Outcome)
	}
}

// TestQueueFIFOAndBound: waiters are served oldest-first; a full queue
// sheds and reports saturation.
func TestQueueFIFOAndBound(t *testing.T) {
	c := NewController(Config{MaxInFlight: 1, Queue: 2, QueueWait: 5 * time.Second})
	if res := c.Admit(context.Background(), Interactive); res.Outcome != Admitted {
		t.Fatalf("first admit: %v", res.Outcome)
	}

	order := make(chan int, 2)
	for i := 0; i < 2; i++ {
		i := i
		go func() {
			if res := c.Admit(context.Background(), Interactive); res.Outcome == Admitted {
				order <- i
			}
		}()
		// Enqueue deterministically one at a time.
		for c.StatsSnapshot().QueueDepth != i+1 {
			time.Sleep(time.Millisecond)
		}
	}
	if !c.Saturated() {
		t.Fatal("full queue not reported as saturated")
	}
	if res := c.Admit(context.Background(), Interactive); res.Outcome != Shed {
		t.Fatalf("admit into a full queue: %v, want Shed", res.Outcome)
	}

	c.Release(Interactive)
	if first := <-order; first != 0 {
		t.Fatalf("queue served waiter %d first, want 0", first)
	}
	c.Release(Interactive)
	if second := <-order; second != 1 {
		t.Fatalf("queue served waiter %d second, want 1", second)
	}
	c.Release(Interactive)
}

func TestQueueWaitTimeout(t *testing.T) {
	c := NewController(Config{MaxInFlight: 1, Queue: 4, QueueWait: 20 * time.Millisecond})
	if res := c.Admit(context.Background(), Interactive); res.Outcome != Admitted {
		t.Fatalf("first admit: %v", res.Outcome)
	}
	start := time.Now()
	res := c.Admit(context.Background(), Interactive)
	if res.Outcome != TimedOut {
		t.Fatalf("queued past the bound: %v, want TimedOut", res.Outcome)
	}
	if waited := time.Since(start); waited < 20*time.Millisecond {
		t.Fatalf("timed out after only %v", waited)
	}
	if res.RetryAfter <= 0 {
		t.Fatalf("timeout retry hint %v", res.RetryAfter)
	}
	if st := c.StatsSnapshot(); st.QueueDepth != 0 {
		t.Fatalf("queue depth %d after timeout, want 0", st.QueueDepth)
	}
	c.Release(Interactive)
}

func TestQueueContextCancellation(t *testing.T) {
	c := NewController(Config{MaxInFlight: 1, Queue: 4, QueueWait: 10 * time.Second})
	if res := c.Admit(context.Background(), Interactive); res.Outcome != Admitted {
		t.Fatalf("first admit: %v", res.Outcome)
	}
	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan Result, 1)
	go func() { got <- c.Admit(ctx, Interactive) }()
	for c.StatsSnapshot().QueueDepth == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel() // client disconnects while queued
	res := <-got
	if res.Outcome != TimedOut {
		t.Fatalf("canceled waiter: %v, want TimedOut", res.Outcome)
	}
	// The canceled client holds nothing: the slot releases cleanly and
	// the queue is empty.
	c.Release(Interactive)
	st := c.StatsSnapshot()
	if st.Interactive.InFlight != 0 || st.QueueDepth != 0 {
		t.Fatalf("stats after cancel %+v, want empty", st)
	}
}

// TestChurnRace drives concurrent admit/release of both classes with
// random cancellations under -race, then checks the books balance:
// every admission released, no slot leaked, counters reconcile with
// attempts.
func TestChurnRace(t *testing.T) {
	c := NewController(Config{
		Rate:        50_000,
		Burst:       1_000,
		MaxInFlight: 8,
		Queue:       16,
		QueueWait:   2 * time.Millisecond,
	})
	const workers = 16
	const perWorker = 300
	var attempts, admitted, shed, timedOut atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				class := Interactive
				if rng.Intn(2) == 0 {
					class = Bulk
				}
				ctx := context.Background()
				var cancel context.CancelFunc = func() {}
				if rng.Intn(4) == 0 {
					ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(1_000))*time.Microsecond)
				}
				attempts.Add(1)
				res := c.Admit(ctx, class)
				switch res.Outcome {
				case Admitted:
					admitted.Add(1)
					if rng.Intn(3) == 0 {
						time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
					}
					c.Release(class)
				case Shed:
					shed.Add(1)
				case TimedOut:
					timedOut.Add(1)
				}
				cancel()
			}
		}(w)
	}
	wg.Wait()

	st := c.StatsSnapshot()
	if st.Interactive.InFlight != 0 || st.Bulk.InFlight != 0 {
		t.Fatalf("leaked slots: %+v", st)
	}
	if st.QueueDepth != 0 {
		t.Fatalf("leaked waiters: queue depth %d", st.QueueDepth)
	}
	if got := admitted.Load() + shed.Load() + timedOut.Load(); got != attempts.Load() {
		t.Fatalf("outcomes %d != attempts %d", got, attempts.Load())
	}
	ctlTotal := st.Interactive.Admitted + st.Interactive.Shed + st.Interactive.TimedOut +
		st.Bulk.Admitted + st.Bulk.Shed + st.Bulk.TimedOut
	if ctlTotal != attempts.Load() {
		t.Fatalf("controller counters %d != attempts %d", ctlTotal, attempts.Load())
	}
	if st.Bulk.TimedOut != 0 {
		t.Fatalf("bulk timed out %d times — bulk must never queue", st.Bulk.TimedOut)
	}
}

func TestRetryAfterSecondsRoundsUpToAtLeastOne(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		want int
	}{
		{0, 1},
		{time.Millisecond, 1},
		{time.Second, 1},
		{time.Second + time.Nanosecond, 2},
		{2500 * time.Millisecond, 3},
	} {
		if got := (Result{Outcome: Shed, RetryAfter: tc.d}).RetryAfterSeconds(); got != tc.want {
			t.Fatalf("RetryAfterSeconds(%v) = %d, want %d", tc.d, got, tc.want)
		}
	}
}
