// Command iprism-serve runs the online STI risk-scoring service: a JSON
// HTTP API that accepts driving scenes and returns per-actor and combined
// STI, plus a session API for streaming episode observations and querying
// peak risk and risky intervals.
//
//	iprism-serve -addr :8377
//	curl -s localhost:8377/healthz
//	curl -s -X POST localhost:8377/v1/score -d @scene.json
//
// The process shuts down gracefully on SIGINT/SIGTERM: the listener closes
// immediately, every accepted request is answered within a 30 s drain,
// then the scoring workers exit and the process exits 0. The journal is
// flushed and closed on every exit path, a failed drain included.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/server"
	"repro/internal/telemetry"
)

// drainBudget bounds the graceful shutdown before connections are
// force-closed.
const drainBudget = 30 * time.Second

func main() {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	if err := run(os.Args[1:], stop, drainBudget); err != nil {
		fmt.Fprintln(os.Stderr, "iprism-serve:", err)
		os.Exit(1)
	}
}

// run serves until stop delivers a signal, then drains within drain. Its
// error is the first of start-up, drain and journal-close failures.
func run(args []string, stop <-chan os.Signal, drain time.Duration) (err error) {
	fs := flag.NewFlagSet("iprism-serve", flag.ExitOnError)
	var (
		addr     = fs.String("addr", ":8377", "listen address (use 127.0.0.1:0 for an ephemeral port)")
		addrFile = fs.String("addr-file", "", "write the bound address to this file once listening (for scripts using :0)")
		journal  = fs.String("journal", "", "append JSONL telemetry events (including per-request wide events) to this file")
	)
	fs.Parse(args)

	// The server exposes /metrics and /debug/telemetry itself, so metric
	// collection is always on for the serve command.
	telemetry.Enable()
	closeJournal, err := telemetry.Setup("", *journal)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := closeJournal(); err == nil && cerr != nil {
			err = fmt.Errorf("journal: %w", cerr)
		}
	}()

	s, err := server.New(server.Config{})
	if err != nil {
		return err
	}
	if err := s.Start(*addr); err != nil {
		return err
	}
	log.Printf("iprism-serve: listening on %s", s.Addr())
	if err := writeAddrFile(*addrFile, s.Addr()); err != nil {
		return err
	}

	got := <-stop
	log.Printf("iprism-serve: %v, draining", got)
	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	log.Printf("iprism-serve: drained, exiting")
	return nil
}

// writeAddrFile writes addr to path (when set) via write-then-rename, so
// pollers never read a partial address.
func writeAddrFile(path, addr string) error {
	if path == "" {
		return nil
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(addr+"\n"), 0o644); err != nil {
		return fmt.Errorf("addr-file: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("addr-file: %w", err)
	}
	return nil
}
