// Command iprism-gateway fronts a fleet of iprism-serve scoring backends:
// health-checked backend pool, consistent-hash session affinity, retry and
// hedging for idempotent scoring, SSE risk-stream passthrough, and an
// async corpus-job API that fans bulk scoring across the fleet.
//
//	iprism-serve -addr 127.0.0.1:8378 &
//	iprism-serve -addr 127.0.0.1:8379 &
//	iprism-gateway -addr :8377 -backends 127.0.0.1:8378,127.0.0.1:8379
//	curl -s -X POST localhost:8377/v1/score -d @scene.json
//
// The process shuts down gracefully on SIGINT/SIGTERM: probers and job
// workers stop, in-flight proxied requests are answered within a 30 s
// drain, SSE proxies are cancelled (clients resume elsewhere), then the
// process exits 0. The journal is flushed and closed on every exit path, a
// failed drain included.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/gateway"
	"repro/internal/telemetry"
)

// drainBudget bounds the graceful shutdown before connections are
// force-closed.
const drainBudget = 30 * time.Second

func main() {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	if err := run(os.Args[1:], stop, drainBudget); err != nil {
		fmt.Fprintln(os.Stderr, "iprism-gateway:", err)
		os.Exit(1)
	}
}

// run serves until stop delivers a signal, then drains within drain. Its
// error is the first of start-up, drain and journal-close failures.
func run(args []string, stop <-chan os.Signal, drain time.Duration) (err error) {
	fs := flag.NewFlagSet("iprism-gateway", flag.ExitOnError)
	var (
		addr     = fs.String("addr", ":8377", "listen address (use 127.0.0.1:0 for an ephemeral port)")
		addrFile = fs.String("addr-file", "", "write the bound address to this file once listening (for scripts using :0)")
		backends = fs.String("backends", "", "comma-separated backend addresses (host:port), required")
		probeIv  = fs.Duration("probe-interval", time.Second, "health-probe interval per backend")
		journal  = fs.String("journal", "", "append JSONL telemetry events (including proxy wide events) to this file")
	)
	fs.Parse(args)
	if *backends == "" {
		return fmt.Errorf("-backends is required (comma-separated host:port list)")
	}

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

	g, err := gateway.New(gateway.Config{
		Backends:      strings.Split(*backends, ","),
		ProbeInterval: *probeIv,
		Logf:          log.Printf,
	})
	if err != nil {
		return err
	}
	if err := g.Start(*addr); err != nil {
		return err
	}
	log.Printf("iprism-gateway: listening on %s, fronting %s", g.Addr(), *backends)
	if err := writeAddrFile(*addrFile, g.Addr()); err != nil {
		return err
	}

	got := <-stop
	log.Printf("iprism-gateway: %v, draining", got)
	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := g.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	log.Printf("iprism-gateway: drained, exiting")
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
