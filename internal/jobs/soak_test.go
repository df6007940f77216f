package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lowutil"
)

// TestConcurrentSoak hammers the queue's whole public surface from many
// goroutines at once: submitters under GC pressure (MaxJobs far below the
// submission volume, so terminal records are evicted while new batches
// arrive), a Drain/Resume flipper, and readers spinning on Status,
// BatchStatus, Events, and Stats. The point is the schedule, not any one
// assertion — under `go test -race` this patrols the locking around the
// drain/restart critical section (a Resume racing a Drain once double-
// started the dispatcher pool) and the record GC. Wall-clock bounded, with
// a tighter budget under -short.
func TestConcurrentSoak(t *testing.T) {
	dur := 1500 * time.Millisecond
	if testing.Short() {
		dur = 300 * time.Millisecond
	}
	exec := &countExec{fail: func(spec lowutil.Request, call int64) error {
		// The end-of-test liveness probe must succeed deterministically;
		// every soak job takes a fault roughly every 17th execution.
		if call%17 == 0 && spec.Source != "soak final probe" {
			return errors.New("injected transient failure")
		}
		return nil
	}}
	q := New(Config{
		Executor:    exec,
		Shards:      4,
		Workers:     4,
		Depth:       4096,
		MaxAttempts: 2,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  2 * time.Millisecond,
		MaxJobs:     64,
		MaxResults:  32,
	})

	stop := make(chan struct{})
	time.AfterFunc(dur, func() { close(stop) })
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}

	var (
		wg        sync.WaitGroup
		submitted atomic.Int64
		sampleMu  sync.Mutex
		sampleID  string
		sampleBat string
	)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !stopped(); i++ {
				key := fmt.Sprintf("soak-%d-%d", g, i)
				reqs := []Request{{Spec: testSpec(fmt.Sprintf("src %d %d", g, i))}}
				if i%3 == 0 {
					reqs = append(reqs, Request{Spec: testSpec(fmt.Sprintf("src %d %d b", g, i))})
				}
				batch, subs, err := q.Submit(key, reqs)
				if errors.Is(err, ErrQueueFull) {
					time.Sleep(time.Millisecond)
					continue
				}
				if err != nil {
					t.Errorf("submit %s: %v", key, err)
					return
				}
				submitted.Add(int64(len(subs)))
				sampleMu.Lock()
				sampleID, sampleBat = subs[0].ID, batch
				sampleMu.Unlock()
			}
		}(g)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stopped() {
			q.Drain()
			time.Sleep(time.Millisecond)
			q.Resume()
			time.Sleep(3 * time.Millisecond)
		}
	}()

	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stopped() {
				q.Stats()
				sampleMu.Lock()
				id, batch := sampleID, sampleBat
				sampleMu.Unlock()
				if id == "" {
					continue
				}
				q.Status(id)
				q.BatchStatus(batch)
				ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
				_ = q.Events(ctx, id, 0, func(Event) error { return nil })
				cancel()
				time.Sleep(time.Millisecond)
			}
		}()
	}

	wg.Wait()

	// The flipper may have exited right after a Drain; Resume is a no-op on
	// a running queue, so this always leaves the workers up.
	q.Resume()

	// Liveness: after the churn, a fresh job still runs to completion and
	// the accounting still balances.
	_, subs, err := q.Submit("soak-final", []Request{{Spec: testSpec("soak final probe")}})
	if err != nil {
		t.Fatalf("final submit: %v", err)
	}
	submitted.Add(1)
	st := waitTerminal(t, q, subs[0].ID)
	if st.State != StateDone {
		t.Errorf("final job state = %s, want %s (error %+v)", st.State, StateDone, st.Err)
	}
	// Drain before checking the books: it waits for the workers to exit, so
	// no job is mid-transition between the queued/running/completed
	// counters when the snapshot is taken.
	q.Drain()
	stats := q.Stats()
	if stats.Submitted != submitted.Load() {
		t.Errorf("stats.Submitted = %d, want %d", stats.Submitted, submitted.Load())
	}
	if got := stats.Completed + stats.Failed + stats.Queued + stats.Running; got != stats.Submitted {
		t.Errorf("job accounting leaks: done %d + failed %d + queued %d + running %d != submitted %d",
			stats.Completed, stats.Failed, stats.Queued, stats.Running, stats.Submitted)
	}
}
