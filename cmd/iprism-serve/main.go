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
// immediately, every accepted request is answered, then the scoring
// workers exit and the process exits 0.
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

func main() {
	var (
		addr       = flag.String("addr", ":8377", "listen address (use 127.0.0.1:0 for an ephemeral port)")
		addrFile   = flag.String("addr-file", "", "write the bound address to this file once listening (for scripts using :0)")
		workers    = flag.Int("workers", 0, "scoring workers / pooled evaluators (0 = GOMAXPROCS)")
		queue      = flag.Int("queue", 0, "queued jobs beyond in-flight before 429 (0 = 16x workers)")
		timeout    = flag.Duration("timeout", 2*time.Second, "per-request scoring deadline")
		sessions   = flag.Int("max-sessions", 0, "max concurrently open sessions (0 = 1024)")
		journal    = flag.String("journal", "", "append JSONL telemetry events (including per-request wide events) to this file")
		journalMax = flag.Int64("journal-max-bytes", 64<<20, "rotate the journal to <path>.1 past this size (0 = unbounded)")
		drain      = flag.Duration("drain", 30*time.Second, "graceful shutdown budget before connections are force-closed")
		sloAvail   = flag.Float64("slo-availability", 0.999, "availability objective: fraction of requests answered without server error")
		sloLat     = flag.Float64("slo-latency", 0.99, "latency objective: fraction of requests answered within -slo-latency-target")
		sloLatTgt  = flag.Duration("slo-latency-target", 250*time.Millisecond, "latency threshold backing the latency SLO")
		flightSize = flag.Int("flight-recorder-size", 256, "wide events retained in memory for /debug/requests")
		sseHB      = flag.Duration("sse-heartbeat", 10*time.Second, "idle heartbeat interval on session risk streams")
		sseHistory = flag.Int("sse-history", 0, "per-session events retained for Last-Event-ID resume (0 = 256)")
	)
	flag.Parse()

	// The server exposes /metrics and /debug/telemetry itself, so metric
	// collection is always on for the serve command.
	telemetry.Enable()
	if *journal != "" {
		j, err := telemetry.OpenJournalRotating(*journal, *journalMax)
		if err != nil {
			log.Fatalf("iprism-serve: journal: %v", err)
		}
		defer j.Close()
		telemetry.SetJournal(j)
	}

	s, err := server.New(server.Config{
		Workers:            *workers,
		QueueDepth:         *queue,
		RequestTimeout:     *timeout,
		MaxSessions:        *sessions,
		SLOAvailability:    *sloAvail,
		SLOLatency:         *sloLat,
		SLOLatencyTarget:   *sloLatTgt,
		FlightRecorderSize: *flightSize,
		SSEHeartbeat:       *sseHB,
		SSEHistory:         *sseHistory,
	})
	if err != nil {
		log.Fatalf("iprism-serve: %v", err)
	}
	if err := s.Start(*addr); err != nil {
		log.Fatalf("iprism-serve: %v", err)
	}
	log.Printf("iprism-serve: listening on %s", s.Addr())
	if *addrFile != "" {
		// Write-then-rename so pollers never read a partial address.
		tmp := *addrFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(s.Addr()+"\n"), 0o644); err != nil {
			log.Fatalf("iprism-serve: addr-file: %v", err)
		}
		if err := os.Rename(tmp, *addrFile); err != nil {
			log.Fatalf("iprism-serve: addr-file: %v", err)
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	got := <-sig
	log.Printf("iprism-serve: %v, draining", got)
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "iprism-serve: shutdown: %v\n", err)
		os.Exit(1)
	}
	log.Printf("iprism-serve: drained, exiting")
}
