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
// drains in-flight requests and exits.
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
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	srv.Close() // drain the job queue after the listener stops

	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
