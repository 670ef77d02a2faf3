// Package gateway is the fleet front tier over a pool of iprism-serve
// scoring backends: one stdlib net/http process that makes N backends look
// like one fast, hard-to-kill scoring service. It is the "runtime service
// under a latency budget" story (REACT) taken to fleet scale:
//
//   - health-checked backend set: periodic /healthz probes plus passive
//     connection-error evidence eject a dead backend within a couple of
//     requests; ejected backends are re-probed with backoff and
//     re-admitted after consecutive good probes;
//   - consistent-hash session routing: the gateway names sessions (the
//     backend create API accepts client-assigned IDs), so a session's
//     owner backend is derivable from the ID alone — any gateway replica
//     with the same backend list routes identically, with no shared
//     state. A /v1/sessions/* request always lands on the owner; if the
//     owner is ejected it lands on the successor and the session is
//     transparently re-created there (history lost, stickiness regained);
//   - retry/hedging for idempotent scoring: 5xx and connection errors
//     retry on a different backend under a token budget; an optional
//     hedge duplicates a slow request after a p95-derived delay, first
//     response wins, loser cancelled. Deliberate 429 backpressure passes
//     through with its Retry-After and is never retried;
//   - SSE risk streaming: GET /v1/sessions/{id}/stream proxies the owning
//     backend's per-tick event stream (Last-Event-ID resume included);
//   - async corpus jobs: POST /v1/jobs accepts a scene corpus, a bounded
//     in-gateway scheduler fans the scenes across every healthy backend
//     respecting 429 backpressure, and the per-scene STI artifact is
//     fetched when done (see jobs.go);
//   - observability: X-Trace-Id propagation gateway -> backend, per-proxy
//     wide events in /debug/requests, per-backend counters and fleet
//     gauges on /metrics, and an X-Backend response header so clients
//     (and the loadgen stickiness assertion) can see routing decisions.
package gateway

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

// Fleet-level telemetry; per-backend counters live on each backend.
var (
	telRequests     = telemetry.NewCounter("gateway.http.requests")
	telProxySecs    = telemetry.NewHistogram("gateway.proxy.seconds", telemetry.LatencyBuckets())
	telRetries      = telemetry.NewCounter("gateway.proxy.retries")
	telHedges       = telemetry.NewCounter("gateway.proxy.hedges")
	telHedgeWins    = telemetry.NewCounter("gateway.proxy.hedge_wins")
	telProxyErrors  = telemetry.NewCounter("gateway.proxy.errors")
	telBadGateway   = telemetry.NewCounter("gateway.proxy.bad_gateway")
	telEjections    = telemetry.NewCounter("gateway.backend.ejections")
	telReadmissions = telemetry.NewCounter("gateway.backend.readmissions")
	telHealthyGauge = telemetry.NewGauge("gateway.backends.healthy")
	telRingGauge    = telemetry.NewGauge("gateway.ring.points")
	telResurrect    = telemetry.NewCounter("gateway.sessions.resurrected")
	telStreams      = telemetry.NewGauge("gateway.sse.proxied_streams")
)

// Config tunes the gateway. Backends is required; everything else has
// serviceable defaults.
type Config struct {
	// Backends are the scoring backends as host:port (a leading http://
	// is accepted and stripped). Order matters only for the stable
	// per-backend metric indices.
	Backends []string
	// VirtualNodes per backend on the session ring. 0 resolves to 128.
	VirtualNodes int
	// ProbeInterval between health probes per healthy backend. 0 = 1s.
	ProbeInterval time.Duration
	// ProbeTimeout per probe. 0 resolves to min(ProbeInterval, 500ms).
	ProbeTimeout time.Duration
	// ProbeBackoffMax caps the exponential probe backoff while a backend
	// stays down. 0 resolves to 8×ProbeInterval.
	ProbeBackoffMax time.Duration
	// FailThreshold is how many consecutive failures (probe or passive
	// connection error) eject a backend. 0 resolves to 2.
	FailThreshold int
	// ReadmitThreshold is how many consecutive good probes re-admit an
	// ejected backend. 0 resolves to 2.
	ReadmitThreshold int

	// MaxAttempts bounds tries per idempotent request (first + retries on
	// distinct backends). 0 resolves to 3.
	MaxAttempts int
	// RetryBudget caps retries+hedges as a fraction of proxied requests
	// (plus a fixed burst of 16), so a fleet-wide brownout cannot amplify
	// traffic. 0 resolves to 0.10.
	RetryBudget float64
	// Hedge enables tail-latency hedging for idempotent scoring requests:
	// after a delay derived from the observed proxy p95, the request is
	// duplicated to a second backend and the first answer wins.
	// HedgeOff disables it (field inverted so the zero Config hedges).
	HedgeOff bool
	// HedgeMinDelay floors the hedge delay so a cold latency tracker
	// doesn't hedge instantly. 0 resolves to 20ms.
	HedgeMinDelay time.Duration
	// RequestTimeout bounds one proxied scoring request end to end
	// (including retries and hedges). 0 resolves to 10s.
	RequestTimeout time.Duration
	// MaxBodyBytes caps request bodies (score, observe). Job submissions
	// are capped separately by MaxJobBytes. 0 resolves to 1 MiB.
	MaxBodyBytes int64

	// JobWorkers bounds concurrent in-flight scene scorings across all
	// jobs, so a bulk corpus cannot starve interactive traffic. 0 = 4.
	JobWorkers int
	// MaxJobScenes bounds one corpus. 0 resolves to 100000.
	MaxJobScenes int
	// MaxJobs bounds retained jobs (running + done); completed jobs are
	// evicted oldest-first past the cap. 0 resolves to 64.
	MaxJobs int
	// MaxJobBytes caps a corpus submission body. 0 resolves to 64 MiB.
	MaxJobBytes int64
	// JobRetryAfterCap bounds how long the scheduler honours a backend's
	// Retry-After before re-polling the fleet. 0 resolves to 5s.
	JobRetryAfterCap time.Duration

	// FlightRecorderSize is how many proxy wide events /debug/requests
	// retains. 0 resolves to 256.
	FlightRecorderSize int
	// Logf, when set, receives operational log lines (ejections,
	// re-admissions, job lifecycle). Nil is silent.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() (Config, error) {
	if len(c.Backends) == 0 {
		return c, fmt.Errorf("gateway: no backends configured")
	}
	cleaned := make([]string, len(c.Backends))
	seen := map[string]bool{}
	for i, addr := range c.Backends {
		a := addr
		for _, pfx := range []string{"http://", "https://"} {
			if len(a) > len(pfx) && a[:len(pfx)] == pfx {
				a = a[len(pfx):]
			}
		}
		if a == "" || seen[a] {
			return c, fmt.Errorf("gateway: empty or duplicate backend %q", addr)
		}
		seen[a] = true
		cleaned[i] = a
	}
	c.Backends = cleaned
	if c.VirtualNodes <= 0 {
		c.VirtualNodes = 128
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = min(c.ProbeInterval, 500*time.Millisecond)
	}
	if c.ProbeBackoffMax <= 0 {
		c.ProbeBackoffMax = 8 * c.ProbeInterval
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 2
	}
	if c.ReadmitThreshold <= 0 {
		c.ReadmitThreshold = 2
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetryBudget <= 0 {
		c.RetryBudget = 0.10
	}
	if c.HedgeMinDelay <= 0 {
		c.HedgeMinDelay = 20 * time.Millisecond
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.JobWorkers <= 0 {
		c.JobWorkers = 4
	}
	if c.MaxJobScenes <= 0 {
		c.MaxJobScenes = 100000
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 64
	}
	if c.MaxJobBytes <= 0 {
		c.MaxJobBytes = 64 << 20
	}
	if c.JobRetryAfterCap <= 0 {
		c.JobRetryAfterCap = 5 * time.Second
	}
	if c.FlightRecorderSize <= 0 {
		c.FlightRecorderSize = 256
	}
	return c, nil
}

// Gateway is a running (or startable) fleet front tier.
type Gateway struct {
	cfg      Config
	backends []*backend
	ring     *ring
	rr       atomic.Uint64 // spread rotation for non-affine traffic

	proxyClient  *http.Client // bounded by per-request contexts
	streamClient *http.Client // no timeout: SSE lives until cancelled
	probeClient  *http.Client

	// Retry/hedge token budget: spent must stay under
	// RetryBudget×requests + burst.
	budgetSpent atomic.Int64
	budgetReqs  atomic.Int64

	lat *latencyRing // p95 estimate feeding the hedge delay

	activeStreams atomic.Int64

	jobs   jobTable
	jobSem chan struct{}

	mux    *http.ServeMux
	http   *http.Server
	ln     net.Listener
	addr   atomic.Value // string
	flight *trace.FlightRecorder

	quit      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
	state     atomic.Int32 // 0 idle, 1 serving, 2 shutting down
}

// New builds the gateway: backend pool, ring, probers, routes. Probers
// start immediately so Handler is usable without Start.
func New(cfg Config) (*Gateway, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	g := &Gateway{
		cfg:  cfg,
		ring: newRing(cfg.Backends, cfg.VirtualNodes),
		lat:  newLatencyRing(128),
		quit: make(chan struct{}),
	}
	transport := &http.Transport{
		MaxIdleConns:        64,
		MaxIdleConnsPerHost: 16,
		IdleConnTimeout:     30 * time.Second,
	}
	g.proxyClient = &http.Client{Transport: transport}
	g.streamClient = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost:   4,
		ResponseHeaderTimeout: cfg.RequestTimeout,
	}}
	g.probeClient = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}}
	for i, addr := range cfg.Backends {
		g.backends = append(g.backends, newBackend(i, addr))
	}
	g.jobs.init(cfg.MaxJobs)
	g.jobSem = make(chan struct{}, cfg.JobWorkers)
	g.flight = trace.NewFlightRecorder(cfg.FlightRecorderSize)
	telRingGauge.Set(float64(len(g.ring.points)))
	g.updateHealthGauge()
	g.routes()
	for _, b := range g.backends {
		g.wg.Add(1)
		go g.probe(b)
	}
	return g, nil
}

// Handler returns the gateway's HTTP handler.
func (g *Gateway) Handler() http.Handler { return g.mux }

// Addr returns the bound listen address after Start.
func (g *Gateway) Addr() string {
	if v := g.addr.Load(); v != nil {
		return v.(string)
	}
	return ""
}

// Start listens on addr and serves in the background until Shutdown.
func (g *Gateway) Start(addr string) error {
	if !g.state.CompareAndSwap(0, 1) {
		return fmt.Errorf("gateway: already started")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("gateway: listen %s: %w", addr, err)
	}
	g.ln = ln
	g.addr.Store(ln.Addr().String())
	g.http = &http.Server{Handler: g.mux}
	go g.http.Serve(ln)
	return nil
}

// Shutdown stops the gateway: probers and job workers stop, in-flight
// proxied requests finish (SSE proxies are cancelled — their client can
// resume against another gateway), then the listener closes.
func (g *Gateway) Shutdown(ctx context.Context) error {
	g.closeOnce.Do(func() { close(g.quit) })
	var err error
	if g.state.Swap(2) == 1 && g.http != nil {
		err = g.http.Shutdown(ctx)
		if err != nil {
			g.http.Close()
		}
	}
	g.wg.Wait()
	return err
}

func (g *Gateway) routes() {
	g.mux = http.NewServeMux()
	// Every proxied route gets the wide-event envelope; the long-lived SSE
	// proxy and the debug surface skip it (a minutes-long stream is not a
	// latency outlier, and debug reads should not pollute the recorder).
	g.mux.HandleFunc("POST /v1/score", g.traced("/v1/score", true, g.handleScore))
	g.mux.HandleFunc("POST /v1/score/batch", g.traced("/v1/score/batch", true, g.handleScoreBatch))
	g.mux.HandleFunc("POST /v1/sessions", g.traced("/v1/sessions", true, g.handleSessionCreate))
	g.mux.HandleFunc("POST /v1/sessions/{id}/observe", g.traced("/v1/sessions/observe", true, g.handleSessionProxy))
	g.mux.HandleFunc("GET /v1/sessions/{id}/risk", g.traced("/v1/sessions/risk", true, g.handleSessionProxy))
	g.mux.HandleFunc("DELETE /v1/sessions/{id}", g.traced("/v1/sessions/delete", true, g.handleSessionProxy))
	g.mux.HandleFunc("GET /v1/sessions/{id}/stream", g.traced("/v1/sessions/stream", false, g.handleSessionStream))
	g.mux.HandleFunc("POST /v1/jobs", g.traced("/v1/jobs", true, g.handleJobSubmit))
	g.mux.HandleFunc("GET /v1/jobs/{id}", g.traced("/v1/jobs/status", true, g.handleJobStatus))
	g.mux.HandleFunc("GET /v1/jobs/{id}/results", g.traced("/v1/jobs/results", true, g.handleJobResults))
	g.mux.HandleFunc("GET /healthz", g.handleHealthz)
	g.mux.Handle("GET /metrics", telemetry.Default().MetricsHandler())
	g.mux.Handle("GET /debug/telemetry", telemetry.Default().SnapshotHandler())
	g.mux.HandleFunc("GET /debug/requests", g.traced("/debug/requests", false, g.flight.ServeHTTP))
	g.mux.HandleFunc("GET /debug/backends", g.traced("/debug/backends", false, g.handleDebugBackends))
}

// handleHealthz: the gateway is healthy while it can route anywhere.
// A fleet with zero healthy backends answers 503 so an outer balancer can
// fail away from this gateway.
func (g *Gateway) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if g.healthyCount() == 0 {
		http.Error(w, "no healthy backends", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

// healthyAfter returns the candidate list for a key-affine request: the
// ring successors of key filtered to healthy backends (unhealthy ones kept
// at the tail as a last resort when everything is ejected).
func (g *Gateway) healthyAfter(key string) []*backend {
	idxs := g.ring.successors(key)
	out := make([]*backend, 0, len(idxs))
	var down []*backend
	for _, i := range idxs {
		if g.backends[i].healthy.Load() {
			out = append(out, g.backends[i])
		} else {
			down = append(down, g.backends[i])
		}
	}
	return append(out, down...)
}

// spread returns candidates for non-affine traffic: healthy backends in
// rotation order (then unhealthy as a last resort), so stateless scoring
// load spreads over the whole fleet.
func (g *Gateway) spread() []*backend {
	n := len(g.backends)
	start := int(g.rr.Add(1)) % n
	out := make([]*backend, 0, n)
	var down []*backend
	for i := 0; i < n; i++ {
		b := g.backends[(start+i)%n]
		if b.healthy.Load() {
			out = append(out, b)
		} else {
			down = append(down, b)
		}
	}
	return append(out, down...)
}

// retryAllowed spends one token from the retry/hedge budget if available.
func (g *Gateway) retryAllowed() bool {
	const burst = 16
	allowed := int64(g.cfg.RetryBudget*float64(g.budgetReqs.Load())) + burst
	if g.budgetSpent.Load() >= allowed {
		return false
	}
	g.budgetSpent.Add(1)
	return true
}

// latencyRing is a fixed ring of recent proxy latencies backing the
// p95-derived hedge delay. Cheap by design: one lock, copy-and-sort of at
// most cap samples on read, called once per hedged request arm.
type latencyRing struct {
	mu   sync.Mutex
	buf  []float64
	next int
	full bool
}

func newLatencyRing(n int) *latencyRing { return &latencyRing{buf: make([]float64, n)} }

func (l *latencyRing) note(seconds float64) {
	l.mu.Lock()
	l.buf[l.next] = seconds
	l.next++
	if l.next == len(l.buf) {
		l.next, l.full = 0, true
	}
	l.mu.Unlock()
}

// p95 returns the 95th percentile of retained samples, or 0 with fewer
// than 8 samples (cold start).
func (l *latencyRing) p95() float64 {
	l.mu.Lock()
	n := l.next
	if l.full {
		n = len(l.buf)
	}
	if n < 8 {
		l.mu.Unlock()
		return 0
	}
	cp := append([]float64(nil), l.buf[:n]...)
	l.mu.Unlock()
	// Insertion sort: n <= cap(buf) = 128, and this runs off the hot path.
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	return cp[(len(cp)*95)/100]
}

// hedgeDelay is the p95-derived duplicate-request delay, floored so a
// cold tracker never hedges instantly and capped at half the request
// timeout so the hedge has time to answer.
func (g *Gateway) hedgeDelay() time.Duration {
	d := time.Duration(g.lat.p95() * float64(time.Second))
	if d < g.cfg.HedgeMinDelay {
		d = g.cfg.HedgeMinDelay
	}
	if m := g.cfg.RequestTimeout / 2; d > m {
		d = m
	}
	return d
}
