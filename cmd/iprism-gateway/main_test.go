package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// A drain that runs out of time must still flush the journal: every wide
// event the gateway emitted before the signal is in the file, and run
// reports the failed drain as its error.
func TestRunFlushesJournalWhenDrainFails(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, `{"version":"iprism.score/v1","combined_sti":0,"most_threatening":-1}`)
	}))
	defer backend.Close()
	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr")
	journal := filepath.Join(dir, "journal.jsonl")
	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile, "-journal", journal,
			"-backends", backend.Listener.Addr().String()}, stop, 50*time.Millisecond)
	}()
	addr := waitAddr(t, addrFile, done)

	// A few requests the journal must keep; each wide event is far smaller
	// than the journal's write buffer, so only Close writes them out.
	var traceIDs []string
	for i := 0; i < 3; i++ {
		tid := fmt.Sprintf("cafe00000000000000000000000000%02d", i)
		req, _ := http.NewRequest(http.MethodPost, "http://"+addr+"/v1/score", strings.NewReader("{}"))
		req.Header.Set("X-Trace-Id", tid)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("score: status %d", resp.StatusCode)
		}
		traceIDs = append(traceIDs, tid)
	}

	conn := holdRequestOpen(t, addr, "/v1/score")
	defer conn.Close()
	stop <- syscall.SIGTERM
	if err := <-done; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("run = %v, want a drain deadline error", err)
	}

	events, err := telemetry.ReadJournalFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, ev := range events {
		if ev.Event == "wide_event" {
			tid, _ := ev.Fields["trace_id"].(string)
			seen[tid] = true
		}
	}
	for _, tid := range traceIDs {
		if !seen[tid] {
			t.Errorf("journal lost the wide event of trace %s (%d events on disk)", tid, len(events))
		}
	}
}

// waitAddr polls the address file run writes once listening.
func waitAddr(t *testing.T, path string, done <-chan error) string {
	t.Helper()
	for i := 0; i < 200; i++ {
		if raw, err := os.ReadFile(path); err == nil {
			return strings.TrimSpace(string(raw))
		}
		select {
		case err := <-done:
			t.Fatalf("run exited before listening: %v", err)
		case <-time.After(25 * time.Millisecond):
		}
	}
	t.Fatal("run never wrote its address file")
	return ""
}

// holdRequestOpen starts a POST whose body never arrives and returns once
// the handler is blocked reading it (the server's 100 Continue says so),
// so a graceful drain cannot finish while the connection is held.
func holdRequestOpen(t *testing.T, addr, path string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: 64\r\nExpect: 100-continue\r\n\r\n", path, addr)
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil || !strings.Contains(line, "100") {
		t.Fatalf("want 100 Continue, got %q (%v)", line, err)
	}
	return conn
}
