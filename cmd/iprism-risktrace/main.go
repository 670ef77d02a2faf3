// Command iprism-risktrace replays the wide events captured by a serving
// journal, rendering one span waterfall per request so a TraceID taken
// from an X-Trace-Id header, a /metrics exemplar, or a loadgen "slowest
// requests" report can be inspected offline:
//
//	iprism-risktrace -trace serve-journal.jsonl -trace-id 4bf9…
//	iprism-risktrace -trace serve-journal.jsonl -slowest 5
//
// The paper's Fig. 4/5 series are written by iprism-report (fig4.csv and
// fig5.csv in its output directory).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "iprism-risktrace:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		traceFile = flag.String("trace", "", "replay the wide events of this serving journal (required)")
		traceID   = flag.String("trace-id", "", "only requests carrying this trace ID")
		slowest   = flag.Int("slowest", 0, "only the N slowest requests")
	)
	flag.Parse()

	if *traceFile == "" {
		return fmt.Errorf("-trace is required (the Fig. 4/5 series come from iprism-report)")
	}
	return replayTrace(os.Stdout, *traceFile, *traceID, *slowest)
}

// replayTrace renders the wide events of a serving journal as span
// waterfalls: one block per request with its identity, outcome, risk
// annotations, and the server → evaluator → reach span chain laid out on a
// shared time axis.
func replayTrace(out io.Writer, path, wantID string, slowest int) error {
	events, err := telemetry.ReadJournalFile(path)
	if err != nil {
		return err
	}
	var wides []trace.WideEvent
	for _, ev := range events {
		if ev.Event != "wide_event" {
			continue
		}
		// The journal flattened the event into Fields with the WideEvent JSON
		// tags, so a marshal round-trip recovers the typed record.
		raw, err := json.Marshal(ev.Fields)
		if err != nil {
			return err
		}
		var w trace.WideEvent
		if err := json.Unmarshal(raw, &w); err != nil {
			return fmt.Errorf("wide event in %s: %w", path, err)
		}
		if wantID == "" || w.TraceID == wantID {
			wides = append(wides, w)
		}
	}
	if len(wides) == 0 {
		if wantID != "" {
			return fmt.Errorf("no wide event with trace %s in %s", wantID, path)
		}
		return fmt.Errorf("no wide events in %s (was the server run with -journal?)", path)
	}
	if slowest > 0 {
		sort.SliceStable(wides, func(i, j int) bool { return wides[i].Seconds > wides[j].Seconds })
		if slowest < len(wides) {
			wides = wides[:slowest]
		}
	}
	for _, w := range wides {
		printWaterfall(out, w)
	}
	return nil
}

func printWaterfall(out io.Writer, w trace.WideEvent) {
	fmt.Fprintf(out, "trace %s  request %s  %s  status %d  %.3fms\n",
		w.TraceID, w.RequestID, w.Route, w.Status, w.Seconds*1e3)
	if len(w.Attrs) > 0 {
		keys := make([]string, 0, len(w.Attrs))
		for k := range w.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = fmt.Sprintf("%s=%v", k, w.Attrs[k])
		}
		fmt.Fprintf(out, "  %s\n", strings.Join(parts, "  "))
	}
	spans := append([]trace.Span(nil), w.Spans...)
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].StartUS < spans[j].StartUS })
	totalUS := int64(w.Seconds * 1e6)
	for _, sp := range spans {
		if end := sp.StartUS + sp.DurUS; end > totalUS {
			totalUS = end
		}
	}
	const width = 40
	for _, sp := range spans {
		bar := [width]byte{}
		for i := range bar {
			bar[i] = ' '
		}
		if totalUS > 0 {
			lo := int(sp.StartUS * width / totalUS)
			hi := int((sp.StartUS + sp.DurUS) * width / totalUS)
			if hi <= lo {
				hi = lo + 1
			}
			for i := lo; i < hi && i < width; i++ {
				bar[i] = '#'
			}
		}
		fmt.Fprintf(out, "  %-28s %9dus +%8dus |%s|\n", sp.Name, sp.StartUS, sp.DurUS, bar[:])
	}
	fmt.Fprintln(out)
}
