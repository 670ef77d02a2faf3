package gateway

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/scene"
	"repro/internal/telemetry/trace"
)

// newID mints a short random identifier (gateway-assigned session and job
// IDs). 8 random bytes — collision across a fleet's lifetime is negligible
// and the backend answers 409 if one ever happens.
func newID(prefix string) string {
	var b [8]byte
	rand.Read(b[:])
	return prefix + hex.EncodeToString(b[:])
}

// attempt proxies one request body to one backend and reports passive
// health evidence: a connection error (not caller cancellation) counts
// toward ejection exactly like a failed probe, so a SIGKILL'd backend is
// ejected by its own failing traffic within FailThreshold requests instead
// of waiting out a probe period.
func (g *Gateway) attempt(ctx context.Context, b *backend, method, pathAndQuery string, body []byte, hdr http.Header) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, b.base+pathAndQuery, rd)
	if err != nil {
		return nil, err
	}
	for _, k := range []string{"Content-Type", "X-Trace-Id", "Last-Event-ID", "Accept"} {
		if v := hdr.Get(k); v != "" {
			req.Header.Set(k, v)
		}
	}
	b.telRequests.Inc()
	b.inflight.Add(1)
	defer b.inflight.Add(-1)
	resp, err := g.proxyClient.Do(req)
	if err != nil {
		b.telErrors.Inc()
		if ctx.Err() == nil {
			if b.noteFailure(g.cfg.FailThreshold) {
				g.logf("gateway: backend %s ejected (request error: %v)", b.addr, err)
			}
			g.updateHealthGauge()
		}
		return nil, err
	}
	// Contact succeeded: clear passive failure evidence. (Re-admission of an
	// ejected backend still requires consecutive clean probes.)
	b.consecFail.Store(0)
	if resp.StatusCode >= http.StatusInternalServerError {
		b.telErrors.Inc()
	}
	return resp, nil
}

// armResult is one retry/hedge arm's outcome inside proxyIdempotent.
type armResult struct {
	resp   *http.Response
	b      *backend
	err    error
	arm    int
	hedged bool
}

// proxyIdempotent forwards an idempotent scoring request with retries and
// (optionally) a hedge:
//
//   - a connection error or 5xx retries on the next candidate backend,
//     spending one token from the shared retry budget per extra attempt so
//     a brownout cannot amplify load;
//   - while the first attempt is still pending past the p95-derived hedge
//     delay, a duplicate is raced on the next backend; first acceptable
//     response wins and the loser's context is cancelled;
//   - a 429 is deliberate backpressure, not a failure: it passes straight
//     through with its Retry-After and is never retried or hedged against
//     (retrying elsewhere would defeat the backend's flow control).
//
// The winning response and its backend are returned; the caller owns the
// body. Exhausted candidates or budget yield a nil response.
func (g *Gateway) proxyIdempotent(r *http.Request, body []byte, cands []*backend) (*http.Response, *backend, error) {
	g.budgetReqs.Add(1)
	ctx, cancel := context.WithTimeout(r.Context(), g.cfg.RequestTimeout)
	defer cancel()

	maxArms := min(g.cfg.MaxAttempts, len(cands))
	results := make(chan armResult, maxArms)
	cancels := make([]context.CancelFunc, 0, maxArms)
	next, inFlight := 0, 0
	launch := func(hedged bool) {
		b := cands[next]
		next++
		actx, acancel := context.WithCancel(ctx)
		arm := len(cancels)
		cancels = append(cancels, acancel)
		inFlight++
		if hedged {
			telHedges.Inc()
			b.telHedges.Inc()
		}
		go func() {
			resp, err := g.attempt(actx, b, r.Method, r.URL.RequestURI(), body, r.Header)
			results <- armResult{resp: resp, b: b, err: err, arm: arm, hedged: hedged}
		}()
	}
	launch(false)

	// One hedge per request, and only while a second backend is healthy —
	// duplicating onto a degraded fleet makes tail latency worse, not
	// better.
	var hedgeC <-chan time.Time
	if !g.cfg.HedgeOff && next < maxArms && g.healthyCount() >= 2 {
		t := time.NewTimer(g.hedgeDelay())
		defer t.Stop()
		hedgeC = t.C
	}

	var lastErr error
	for inFlight > 0 {
		select {
		case <-hedgeC:
			hedgeC = nil
			if next < maxArms && g.retryAllowed() {
				launch(true)
			}
		case ar := <-results:
			inFlight--
			if ar.err == nil && ar.resp.StatusCode < http.StatusInternalServerError {
				// Winner (200, 4xx, and 429 all pass through). Cancel the
				// losing arms and reap them off the channel in the
				// background so their connections are reusable.
				if ar.hedged {
					telHedgeWins.Inc()
				}
				for i, c := range cancels {
					if i != ar.arm {
						c()
					}
				}
				if inFlight > 0 {
					go func(n int) {
						for ; n > 0; n-- {
							if lr := <-results; lr.resp != nil {
								drain(lr.resp)
								lr.resp.Body.Close()
							}
						}
					}(inFlight)
				}
				return ar.resp, ar.b, nil
			}
			if ar.err != nil {
				lastErr = ar.err
			} else {
				lastErr = fmt.Errorf("backend %s answered %d", ar.b.addr, ar.resp.StatusCode)
				drain(ar.resp)
				ar.resp.Body.Close()
			}
			if inFlight == 0 && next < maxArms && ctx.Err() == nil && g.retryAllowed() {
				telRetries.Inc()
				launch(false)
			}
		}
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("no backend available")
	}
	return nil, nil, lastErr
}

// relay copies a backend response to the client: status, content headers,
// backend flow-control headers, and an X-Backend marker naming the serving
// backend (the loadgen's stickiness assertion reads it). X-Trace-Id is NOT
// copied — the gateway set its own (identical) ID before proxying.
func relay(w http.ResponseWriter, resp *http.Response, b *backend) {
	for _, k := range []string{"Content-Type", "Retry-After"} {
		if v := resp.Header.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
	w.Header().Set("X-Backend", b.addr)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	resp.Body.Close()
}

func (g *Gateway) badGateway(w http.ResponseWriter, r *http.Request, err error) {
	telProxyErrors.Inc()
	telBadGateway.Inc()
	trace.FromContext(r.Context()).Annotate("proxy_error", err.Error())
	writeJSON(w, http.StatusBadGateway, scene.ErrorResponse{Error: fmt.Sprintf("no backend could serve the request: %v", err)})
}

// readBody slurps a bounded request body, answering 400/413 itself.
func (g *Gateway) readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, scene.ErrorResponse{Error: fmt.Sprintf("read body: %v", err)})
		return nil, false
	}
	return body, true
}

// handleScore and handleScoreBatch spread stateless scoring over the whole
// healthy fleet with retry + hedging.
func (g *Gateway) handleScore(w http.ResponseWriter, r *http.Request) {
	g.proxyScore(w, r)
}

func (g *Gateway) handleScoreBatch(w http.ResponseWriter, r *http.Request) {
	g.proxyScore(w, r)
}

func (g *Gateway) proxyScore(w http.ResponseWriter, r *http.Request) {
	body, ok := g.readBody(w, r, g.cfg.MaxBodyBytes)
	if !ok {
		return
	}
	start := time.Now()
	resp, b, err := g.proxyIdempotent(r, body, g.spread())
	if err != nil {
		g.badGateway(w, r, err)
		return
	}
	// Only successful scorings feed the hedge-delay estimate: a fast 429 is
	// not evidence that scoring got faster.
	if resp.StatusCode == http.StatusOK {
		g.lat.note(time.Since(start).Seconds())
	}
	trace.FromContext(r.Context()).Annotate("backend", b.addr)
	relay(w, resp, b)
}

// handleSessionCreate names the session (unless the client did) and plants
// it on the ring owner of that name, so every later request for the ID
// routes to the same backend with no gateway-side session table.
func (g *Gateway) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	body, ok := g.readBody(w, r, g.cfg.MaxBodyBytes)
	if !ok {
		return
	}
	var req scene.SessionCreateRequest
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			writeJSON(w, http.StatusBadRequest, scene.ErrorResponse{Error: fmt.Sprintf("decode session request: %v", err)})
			return
		}
	}
	if req.ID == "" {
		req.ID = newID("g")
	}
	fwd, err := json.Marshal(req)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, scene.ErrorResponse{Error: err.Error()})
		return
	}
	r.Header.Set("Content-Type", "application/json")
	resp, b, err := g.proxyIdempotent(r, fwd, g.healthyAfter(req.ID))
	if err != nil {
		g.badGateway(w, r, err)
		return
	}
	trace.FromContext(r.Context()).Annotate("session_id", req.ID)
	trace.FromContext(r.Context()).Annotate("backend", b.addr)
	relay(w, resp, b)
}

// handleSessionProxy forwards observe/risk/delete to the session's owner
// backend (ring successor order, healthy first). Observations mutate the
// session, so only connection errors retry — a duplicated sample is
// harmless, a conn error means the request may not have arrived at all.
// A 404 from the owner after a failover is healed by resurrection: the
// gateway re-creates the session under the same ID on the current owner
// and replays the request once. Episode history before the failover is
// lost (it died with the backend) but stickiness and liveness resume.
func (g *Gateway) handleSessionProxy(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var body []byte
	if r.Method == http.MethodPost {
		var ok bool
		if body, ok = g.readBody(w, r, g.cfg.MaxBodyBytes); !ok {
			return
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), g.cfg.RequestTimeout)
	defer cancel()
	g.budgetReqs.Add(1)
	cands := g.healthyAfter(id)
	resurrected := false
	var lastErr error
	for i := 0; i < len(cands) && i < g.cfg.MaxAttempts; i++ {
		b := cands[i]
		resp, err := g.attempt(ctx, b, r.Method, r.URL.RequestURI(), body, r.Header)
		if err != nil {
			lastErr = err
			if ctx.Err() != nil || !g.retryAllowed() {
				break
			}
			telRetries.Inc()
			continue
		}
		if resp.StatusCode == http.StatusNotFound && !resurrected && r.Method != http.MethodDelete {
			drain(resp)
			resp.Body.Close()
			if g.resurrect(ctx, b, id, r.Header) {
				resurrected = true
				i-- // replay on the same backend
				continue
			}
		}
		trace.FromContext(r.Context()).Annotate("backend", b.addr)
		relay(w, resp, b)
		return
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("no backend available")
	}
	g.badGateway(w, r, lastErr)
}

// resurrect re-creates session id on backend b (used after a failover
// moved the session's ring ownership to a backend that never saw it).
// Both 201 (created) and 409 (another request resurrected it first) count
// as success.
func (g *Gateway) resurrect(ctx context.Context, b *backend, id string, hdr http.Header) bool {
	body, err := json.Marshal(scene.SessionCreateRequest{ID: id})
	if err != nil {
		return false
	}
	h := make(http.Header)
	h.Set("Content-Type", "application/json")
	if v := hdr.Get("X-Trace-Id"); v != "" {
		h.Set("X-Trace-Id", v)
	}
	resp, err := g.attempt(ctx, b, http.MethodPost, "/v1/sessions", body, h)
	if err != nil {
		return false
	}
	drain(resp)
	resp.Body.Close()
	if resp.StatusCode == http.StatusCreated || resp.StatusCode == http.StatusConflict {
		telResurrect.Inc()
		g.logf("gateway: session %s resurrected on %s", id, b.addr)
		return true
	}
	return false
}

// handleSessionStream proxies the owner backend's SSE risk stream: bytes
// are relayed chunk by chunk with a flush per read, so heartbeats and
// events reach the client as they happen. Last-Event-ID (header or query)
// passes through, which makes resume-after-gateway-restart work exactly
// like resume-after-client-drop. On a post-failover 404 the session is
// resurrected first, so the stream attaches to the new owner (the resumed
// cursor is from the lost history — the backend replays what it has).
func (g *Gateway) handleSessionStream(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, scene.ErrorResponse{Error: "streaming unsupported"})
		return
	}
	id := r.PathValue("id")
	// The stream lives until the client leaves or the gateway drains.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-g.quit:
			cancel()
		case <-stop:
		}
	}()

	cands := g.healthyAfter(id)
	resurrected := false
	for i := 0; i < len(cands) && i < g.cfg.MaxAttempts; i++ {
		b := cands[i]
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.base+r.URL.RequestURI(), nil)
		if err != nil {
			break
		}
		for _, k := range []string{"X-Trace-Id", "Last-Event-ID", "Accept"} {
			if v := r.Header.Get(k); v != "" {
				req.Header.Set(k, v)
			}
		}
		b.telRequests.Inc()
		resp, err := g.streamClient.Do(req)
		if err != nil {
			b.telErrors.Inc()
			if ctx.Err() == nil {
				if b.noteFailure(g.cfg.FailThreshold) {
					g.logf("gateway: backend %s ejected (stream error: %v)", b.addr, err)
				}
				g.updateHealthGauge()
			}
			continue
		}
		if resp.StatusCode == http.StatusNotFound && !resurrected {
			drain(resp)
			resp.Body.Close()
			if g.resurrect(ctx, b, id, r.Header) {
				resurrected = true
				i--
				continue
			}
		}
		if resp.StatusCode != http.StatusOK {
			relay(w, resp, b)
			return
		}
		telStreams.Set(float64(g.activeStreams.Add(1)))
		defer func() { telStreams.Set(float64(g.activeStreams.Add(-1))) }()
		w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
		w.Header().Set("Cache-Control", "no-store")
		w.Header().Set("X-Backend", b.addr)
		w.WriteHeader(http.StatusOK)
		flusher.Flush()
		buf := make([]byte, 4096)
		for {
			n, rerr := resp.Body.Read(buf)
			if n > 0 {
				if _, werr := w.Write(buf[:n]); werr != nil {
					break
				}
				flusher.Flush()
			}
			if rerr != nil {
				break
			}
		}
		resp.Body.Close()
		return
	}
	g.badGateway(w, r, fmt.Errorf("stream: no backend available"))
}
