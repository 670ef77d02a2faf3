package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// wideEvent is one per-request record from a serve or gateway journal
// (event "wide_event"; see internal/telemetry/trace.WideEvent).
type wideEvent struct {
	TraceID string         `json:"trace_id"`
	Route   string         `json:"route"`
	Status  int            `json:"status"`
	Seconds float64        `json:"seconds"`
	Attrs   map[string]any `json:"attrs"`
	Spans   []spanRec      `json:"spans"`
}

type spanRec struct {
	Name    string         `json:"name"`
	StartUS int64          `json:"start_us"`
	DurUS   int64          `json:"dur_us"`
	Attrs   map[string]any `json:"attrs"`
}

func (e *wideEvent) attrFloat(key string) float64 {
	v, _ := e.Attrs[key].(float64)
	return v
}

// readWideEvents loads every wide event of a journal, keyed by trace ID.
// Only the first event of a trace is kept: the benchmark mints one trace
// ID per request, so a second event with the same ID would be a retry.
func readWideEvents(path string) (map[string]*wideEvent, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("open journal: %w", err)
	}
	defer f.Close()
	out := map[string]*wideEvent{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		var line struct {
			Event  string    `json:"event"`
			Fields wideEvent `json:"fields"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("journal %s: %w", path, err)
		}
		if line.Event != "wide_event" || line.Fields.TraceID == "" {
			continue
		}
		if _, dup := out[line.Fields.TraceID]; !dup {
			ev := line.Fields
			out[ev.TraceID] = &ev
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("journal %s: %w", path, err)
	}
	return out, nil
}

// ledger splits one traced request's client-observed latency into layer
// rows. Transport is the client span minus the first hop's wide event,
// gateway self the gateway event minus the server event, and the server
// event is partitioned by a sweep over its timeline (see serverRows).
// Residual is whatever the rows fail to account for: span rounding to
// microseconds and queue waits clipped to the event window.
type ledger struct {
	ClientMS      float64
	TransportMS   float64
	GatewaySelfMS float64
	QueueWaitMS   float64
	HandlerSelfMS float64
	PredictMS     float64
	EvaluateMS    float64
	ResidualMS    float64
}

func (l ledger) sum() float64 {
	return l.TransportMS + l.GatewaySelfMS + l.QueueWaitMS + l.HandlerSelfMS + l.PredictMS + l.EvaluateMS
}

// buildLedger joins a client span with the wide events of its request. gw
// is nil when the request went straight to the server.
func buildLedger(clientMS float64, gw, srv *wideEvent) ledger {
	l := ledger{ClientMS: clientMS}
	outer := srv.Seconds * 1e3
	if gw != nil {
		l.GatewaySelfMS = (gw.Seconds - srv.Seconds) * 1e3
		outer = gw.Seconds * 1e3
	}
	l.TransportMS = clientMS - outer
	l.QueueWaitMS, l.HandlerSelfMS, l.PredictMS, l.EvaluateMS = serverRows(srv)
	l.ResidualMS = clientMS - l.sum()
	return l
}

// Span names the server records around its scoring work. A session tick
// runs prediction inside its observe span, so observe counts as evaluate.
const (
	spanPredict  = "server.predict"
	spanEvaluate = "server.evaluate"
	spanObserve  = "server.observe"
)

// serverRows partitions a server wide event's duration into queue wait,
// handler self time, prediction and evaluation. Spans of a batch overlap
// (its scenes run on several workers), so each instant is charged to one
// row only, by priority evaluate > predict > queue wait, and instants no
// span covers are handler self time. The queue interval ends where the
// job that annotated queue_wait_seconds began: the one span of a session
// tick, or the latest-starting job of a batch (the annotation keeps the
// last writer). The four rows sum to the event duration.
func serverRows(ev *wideEvent) (queueMS, selfMS, predictMS, evalMS float64) {
	type iv struct{ lo, hi int64 }
	total := int64(ev.Seconds * 1e6)
	clip := func(lo, hi int64) iv {
		return iv{max(lo, 0), min(hi, total)}
	}
	var eval, pred, queue []iv
	var lastPredict, lastEval int64 = -1, -1
	for _, sp := range ev.Spans {
		switch sp.Name {
		case spanEvaluate, spanObserve:
			eval = append(eval, clip(sp.StartUS, sp.StartUS+sp.DurUS))
			lastEval = max(lastEval, sp.StartUS)
		case spanPredict:
			pred = append(pred, clip(sp.StartUS, sp.StartUS+sp.DurUS))
			lastPredict = max(lastPredict, sp.StartUS)
		}
	}
	jobStart := lastPredict
	if jobStart < 0 {
		jobStart = lastEval
	}
	if q := int64(ev.attrFloat("queue_wait_seconds") * 1e6); q > 0 && jobStart >= 0 {
		queue = append(queue, clip(jobStart-q, jobStart))
	}
	cuts := []int64{0, total}
	for _, set := range [][]iv{eval, pred, queue} {
		for _, v := range set {
			cuts = append(cuts, v.lo, v.hi)
		}
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	covers := func(set []iv, lo, hi int64) bool {
		for _, v := range set {
			if v.lo <= lo && hi <= v.hi {
				return true
			}
		}
		return false
	}
	var q, s, p, e int64
	for i := 0; i+1 < len(cuts); i++ {
		lo, hi := cuts[i], cuts[i+1]
		if hi <= lo || lo < 0 || hi > total {
			continue
		}
		switch d := hi - lo; {
		case covers(eval, lo, hi):
			e += d
		case covers(pred, lo, hi):
			p += d
		case covers(queue, lo, hi):
			q += d
		default:
			s += d
		}
	}
	// Sub-microsecond remainder of the event duration is handler time.
	selfMS = float64(s)/1e3 + (ev.Seconds*1e6-float64(total))/1e3
	return float64(q) / 1e3, selfMS, float64(p) / 1e3, float64(e) / 1e3
}
