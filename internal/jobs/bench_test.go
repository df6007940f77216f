package jobs

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"lowutil"
	"lowutil/internal/workloads"
)

// profileExec compiles and profiles a spec through the public facade — the
// same execution path the server's job executor takes, minus the session
// cache (the queue's own result store provides the reuse here).
var profileExec = ExecutorFunc(func(ctx context.Context, spec lowutil.Request) (*Result, error) {
	prog, err := lowutil.Compile(spec.Source)
	if err != nil {
		return nil, err
	}
	prof, err := prog.ProfileContext(ctx, lowutil.WithSlots(spec.Slots))
	if err != nil {
		return nil, err
	}
	payload, err := json.Marshal(map[string]any{"report": prof.Report(10)})
	if err != nil {
		return nil, err
	}
	return &Result{Kind: spec.Kind, Payload: payload}, nil
})

// BenchmarkJobThroughput pushes all 18 Table 1 workloads through the queue
// per iteration: one batch, profile specs, four workers. Each iteration
// uses a fresh idempotency key and a cold result store, so the number is
// end-to-end queue + compile + profile throughput.
func BenchmarkJobThroughput(b *testing.B) {
	all := workloads.All()
	for i := 0; i < b.N; i++ {
		q := New(Config{Executor: profileExec, Workers: 4})
		reqs := make([]Request, len(all))
		for k, w := range all {
			reqs[k] = Request{Spec: lowutil.Request{Kind: lowutil.KindProfile, Source: w.Source(1), Options: lowutil.Options{Slots: lowutil.DefaultSlots}}}
		}
		_, subs, err := q.Submit(fmt.Sprintf("bench-%d", i), reqs)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range subs {
			if err := q.Events(context.Background(), s.ID, 0, func(Event) error { return nil }); err != nil {
				b.Fatal(err)
			}
			st, _ := q.Status(s.ID)
			if st.State != StateDone {
				b.Fatalf("job %s: %s (%+v)", s.ID, st.State, st.Err)
			}
		}
		q.Drain()
	}
}
