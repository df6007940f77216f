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
// arrive) and readers spinning on Status, BatchStatus, Events, and Stats,
// ending with a Drain while both are still at work. The point is the
// schedule, not any one assertion — under `go test -race` this patrols the
// locking around the heap, the workers' exit and the record GC.
// Wall-clock bounded, with a tighter budget under -short.
func TestConcurrentSoak(t *testing.T) {
	dur := 1500 * time.Millisecond
	if testing.Short() {
		dur = 300 * time.Millisecond
	}
	probeRan := make(chan struct{})
	exec := &countExec{fail: func(spec lowutil.Request, call int64) error {
		// The liveness probe must succeed deterministically; every soak
		// job takes a fault roughly every 17th execution.
		if spec.Source == "soak probe" {
			close(probeRan)
			return nil
		}
		if call%17 == 0 {
			return errors.New("injected failure")
		}
		return nil
	}}
	q := New(Config{
		Executor:   exec,
		Workers:    4,
		Depth:      4096,
		MaxJobs:    64,
		MaxResults: 32,
	})

	stop := make(chan struct{})
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
				reqs := []Request{{Spec: testSpec(fmt.Sprintf("src %d %d", g, i)), Priority: i % 3}}
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

	// Liveness: halfway through the churn, a job that outranks every soak
	// job still gets a worker. (Its record may be evicted as soon as it
	// finishes, so the executor reports the run.)
	time.Sleep(dur / 2)
	if _, _, err := q.Submit("soak-probe", []Request{{Spec: testSpec("soak probe"), Priority: 10}}); err != nil {
		t.Fatalf("probe submit: %v", err)
	}
	submitted.Add(1)
	select {
	case <-probeRan:
	case <-time.After(10 * time.Second):
		t.Fatal("the probe job never ran")
	}

	// Drain under load: submitters and readers keep going through it and
	// for a while after, against a queue whose workers are gone.
	time.Sleep(dur / 2)
	q.Drain()
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()

	// The books balance: the drain waited for the workers to exit, so no
	// job is mid-transition between the counters, and none is running.
	stats := q.Stats()
	if stats.Submitted != submitted.Load() {
		t.Errorf("stats.Submitted = %d, want %d", stats.Submitted, submitted.Load())
	}
	if stats.Running != 0 {
		t.Errorf("%d jobs still running after the drain", stats.Running)
	}
	if got := stats.Completed + stats.Failed + stats.Queued; got != stats.Submitted {
		t.Errorf("job accounting leaks: done %d + failed %d + queued %d != submitted %d",
			stats.Completed, stats.Failed, stats.Queued, stats.Submitted)
	}
}
