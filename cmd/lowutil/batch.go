package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"time"

	"lowutil"
	"lowutil/client"
	"lowutil/internal/server"
	"lowutil/internal/workloads"
)

// cmdBatch drives the full Table 1 workload corpus through the async job
// queue concurrently — an in-process service on a loopback port, the
// public client SDK in front of it — and prints one merged report, sorted
// by workload name so the output is deterministic regardless of how the
// queue interleaved the runs.
func cmdBatch(args []string) error {
	fs := flag.NewFlagSet("batch", flag.ContinueOnError)
	scale := fs.Int("scale", 1, "workload scale factor")
	top := fs.Int("top", lowutil.DefaultTop, "findings per workload report")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "concurrent queue workers")
	timeout := fs.Duration("timeout", 5*time.Minute, "overall batch deadline, which also bounds each job")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("batch takes no positional arguments")
	}
	if err := checkTop(*top); err != nil {
		return err
	}
	if err := checkPositive("scale", *scale); err != nil {
		return err
	}
	if err := checkPositive("workers", *workers); err != nil {
		return err
	}

	srv := server.New(server.Config{
		RequestTimeout: *timeout,
		Logger:         slog.New(slog.NewJSONHandler(io.Discard, nil)),
		JobWorkers:     *workers,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer func() {
		hs.Close()
		srv.Close()
	}()

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	c := client.New("http://" + ln.Addr().String())

	all := workloads.All()
	reqs := make([]client.Job, len(all))
	for i, w := range all {
		reqs[i] = client.Job{Spec: client.Spec{
			Kind:    lowutil.KindReport,
			Source:  w.Source(*scale),
			Options: lowutil.Options{Top: *top},
		}}
	}
	start := time.Now()
	batch, err := c.SubmitBatch(ctx, "", reqs)
	if err != nil {
		return err
	}
	final, err := c.WaitBatch(ctx, batch)
	if err != nil {
		return err
	}

	// Key statuses by submission index: BatchStatus omits jobs whose
	// records were GC'd, so the slice is not guaranteed to align
	// positionally with the submitted batch.
	byIndex := make(map[int]*client.JobStatus, len(final))
	for _, st := range final {
		byIndex[st.Index] = st
	}

	order := make([]int, len(all))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return all[order[a]].Name < all[order[b]].Name })

	failed := 0
	for _, i := range order {
		st := byIndex[i]
		fmt.Printf("== %s ==\n", all[i].Name)
		if st == nil {
			failed++
			fmt.Printf("FAILED: job record evicted before its status was read\n\n")
			continue
		}
		if st.State != client.StateDone || st.Result == nil {
			failed++
			if st.Err != nil {
				fmt.Printf("FAILED (%s): %s\n\n", st.Err.Code, st.Err.Message)
			} else {
				fmt.Printf("FAILED: state %s\n\n", st.State)
			}
			continue
		}
		var rep client.ReportResult
		if err := st.Result.Decode(&rep); err != nil {
			return fmt.Errorf("%s: decoding result: %w", all[i].Name, err)
		}
		fmt.Println(rep.Report)
	}
	fmt.Fprintf(os.Stderr, "batch: %d workloads in %v (%d workers)\n",
		len(all), time.Since(start).Round(time.Millisecond), *workers)
	if failed > 0 {
		return fmt.Errorf("%d workload(s) failed", failed)
	}
	return nil
}
