package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"lowutil/internal/server"
)

// cmdServe runs the HTTP profiling service until SIGINT/SIGTERM, then
// drains in-flight requests and jobs and exits.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "localhost:8347", "listen address")
	sessions := fs.Int("sessions", 64, "max compiled sessions held in the LRU cache")
	inflight := fs.Int("inflight", 4, "max concurrently executing heavy requests")
	timeout := fs.Duration("timeout", 60*time.Second, "per-request deadline")
	drain := fs.Duration("drain", 10*time.Second, "shutdown grace period")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("serve takes no positional arguments")
	}

	log := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	srv := server.New(server.Config{
		MaxSessions:    *sessions,
		MaxInFlight:    *inflight,
		RequestTimeout: *timeout,
		Logger:         log,
	})
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Info("serving", "addr", *addr, "sessions", *sessions, "inflight", *inflight, "timeout", timeout.String())

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Info("shutting down", "grace", drain.String())
	if err := shutdown(hs, srv, *drain); err != nil {
		return err
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// shutdown stops hs and drains srv's job queue within grace. The drain runs
// next to hs.Shutdown, not after it: it fails every in-flight job with
// canceled, which ends the event streams following those jobs, so their
// connections go idle and Shutdown can return. A Shutdown that still runs
// out of grace has drained all the same; it closes the connections left.
func shutdown(hs *http.Server, srv *server.Server, grace time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	drained := make(chan struct{})
	go func() {
		srv.Close()
		close(drained)
	}()
	err := hs.Shutdown(ctx)
	<-drained
	if err != nil {
		hs.Close()
		return fmt.Errorf("shutdown: %w", err)
	}
	return nil
}
