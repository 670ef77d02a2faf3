// Package server is the online risk-scoring service: a stdlib net/http
// JSON API over the STI evaluator (Eqs. 4–5 of the paper). It turns the
// in-process evaluator into the network-facing runtime monitor of the
// paper's lineage — accept a scene (ego state, actors with predicted
// trajectories, road geometry), return per-actor and combined STI within a
// request deadline.
//
// Architecture (see DESIGN.md "Serving"):
//
//   - a pool of sti.Evaluators, one per scoring worker, each with its own
//     empty-world volume cache and pooled reach-tube scratch memory;
//   - a bounded job queue in front of the pool: requests that find the
//     queue full are rejected immediately with 429 + Retry-After instead
//     of stacking latency (queue-depth backpressure);
//   - per-request deadlines via context: a scene that cannot be scored in
//     time answers 504 and its queued job is skipped, not computed;
//   - opportunistic micro-batching: a worker waking up drains up to
//     batchMax queued jobs in one go, amortising scheduler wake-ups at
//     high load while adding no latency at low load;
//   - graceful shutdown: the listener closes first, every accepted request
//     completes (zero dropped in-flight work), then the workers exit;
//   - sessions: a rolling internal/monitor.Monitor per client episode so
//     observations streamed over HTTP can be queried for PeakSTI and
//     RiskyIntervals, the §V-A/V-B online assessor as a service. Each
//     session warm-starts its ticks from the previous tick's expansion
//     (sti.WarmState), bitwise-identical to stateless scoring.
package server

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/actor"
	"repro/internal/reach"
	"repro/internal/roadmap"
	"repro/internal/sti"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
	"repro/internal/vehicle"
)

// Telemetry (collected only once telemetry.Enable has been called; visible
// at /debug/telemetry and /metrics on the server itself).
var (
	telRequests      = telemetry.NewCounter("server.http.requests")
	telScenes        = telemetry.NewCounter("server.scenes.scored")
	telRejectedFull  = telemetry.NewCounter("server.rejected.saturated")
	telRejectedBad   = telemetry.NewCounter("server.rejected.invalid")
	telTimeouts      = telemetry.NewCounter("server.timeouts")
	telRequestSecs   = telemetry.NewHistogram("server.request.seconds", telemetry.LatencyBuckets())
	telScoreSecs     = telemetry.NewHistogram("server.score.seconds", telemetry.LatencyBuckets())
	telQueueDepth    = telemetry.NewGauge("server.queue.depth")
	telBatchSize     = telemetry.NewHistogram("server.batch.size", telemetry.LinearBuckets(1, 1, 16))
	telSessionsGauge = telemetry.NewGauge("server.sessions.active")
	telWarmBytes     = telemetry.NewGauge("server.warm.bytes")
)

// Config holds the scoring service's test hooks. The zero value is the
// production configuration: the paper's reach-tube configuration and the
// capacity values each hook resolves to when zero, as noted per field.
type Config struct {
	// workers is the number of scoring workers (and pooled evaluators).
	// 0 resolves to runtime.GOMAXPROCS(0).
	workers int
	// queueDepth bounds the jobs waiting for a worker beyond those being
	// scored; enqueues past it answer 429. 0 resolves to 16×workers.
	queueDepth int
	// requestTimeout bounds queue wait plus scoring per request; exceeding
	// it answers 504. 0 resolves to 2s.
	requestTimeout time.Duration
	// maxSessions caps concurrently open sessions. 0 resolves to 1024.
	maxSessions int
	// sseHistory is how many per-tick risk events each session retains for
	// Last-Event-ID resume. 0 resolves to 256.
	sseHistory int
}

// Fixed service policy: the SLO objectives (availability counts a
// deliberate 429 as good), the /debug/requests ring, the idle heartbeat
// on session risk streams (keeps proxies from timing out a quiet stream),
// and the per-subscriber event buffer past which a slow stream consumer
// is disconnected.
const (
	sloAvailability    = 0.999
	sloLatency         = 0.99
	sloLatencyTarget   = 250 * time.Millisecond
	flightRecorderSize = 256
	sseHeartbeat       = 10 * time.Second
	sseBuffer          = 64
)

func (c Config) withDefaults() Config {
	if c.workers <= 0 {
		c.workers = runtime.GOMAXPROCS(0)
	}
	if c.queueDepth <= 0 {
		c.queueDepth = 16 * c.workers
	}
	if c.requestTimeout <= 0 {
		c.requestTimeout = 2 * time.Second
	}
	if c.maxSessions <= 0 {
		c.maxSessions = 1024
	}
	if c.sseHistory <= 0 {
		c.sseHistory = 256
	}
	return c
}

// job is one unit of scoring work bound for the evaluator pool. run is
// executed by exactly one worker (unless the job's context expired first),
// then done is closed; the submitting handler owns every variable run
// writes, and reads them only after done.
type job struct {
	ctx  context.Context
	run  func(ev *sti.Evaluator)
	done chan struct{}
}

// Server is a running (or startable) scoring service.
type Server struct {
	cfg   Config
	reach reach.Config
	pool  []*sti.Evaluator
	jobs  chan *job
	quit  chan struct{}
	// closing is closed at the start of Shutdown, before the HTTP drain:
	// long-lived SSE streams must end for http.Shutdown to return, so they
	// watch this channel rather than quit (which closes after the drain).
	closing   chan struct{}
	closeOnce sync.Once
	quitOnce  sync.Once
	wg        sync.WaitGroup
	mux       *http.ServeMux
	http      *http.Server
	ln        net.Listener
	addr      atomic.Value // string
	state     atomic.Int32 // 0 idle, 1 serving, 2 shutting down

	sessions sessionTable
	// warmPool recycles per-session warm-start states (arena-sized memo
	// tables) across session lifetimes. States are Reset before reuse so no
	// expansion state ever crosses sessions.
	warmPool sync.Pool

	// Observability: per-request wide events (flight recorder), the two
	// serving SLOs, and the EWMA of scene-scoring time backing Retry-After.
	flight          *trace.FlightRecorder
	sloAvailability *telemetry.SLOTracker
	sloLatency      *telemetry.SLOTracker
	avgScoreNS      atomic.Int64
	activeStreams   atomic.Int64
}

// New builds the service: evaluator pool, queue, workers, routes. The
// workers start immediately so Handler is usable without Start (tests,
// in-process embedding).
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		reach:   reach.DefaultConfig(),
		pool:    make([]*sti.Evaluator, cfg.workers),
		jobs:    make(chan *job, cfg.queueDepth),
		quit:    make(chan struct{}),
		closing: make(chan struct{}),
	}
	for i := range s.pool {
		ev, err := sti.NewEvaluator(s.reach)
		if err != nil {
			return nil, fmt.Errorf("server: evaluator %d: %w", i, err)
		}
		s.pool[i] = ev
	}
	s.warmPool.New = func() any { return sti.NewWarmState() }
	s.sessions.init(cfg.maxSessions)
	s.flight = trace.NewFlightRecorder(flightRecorderSize)
	s.sloAvailability = telemetry.MustNewSLOTracker(telemetry.SLOConfig{
		Name: "availability", Objective: sloAvailability,
	})
	s.sloLatency = telemetry.MustNewSLOTracker(telemetry.SLOConfig{
		Name: "latency", Objective: sloLatency,
	})
	// The burn-rate gauges ride the same default registry /metrics serves;
	// collectors refresh them at scrape time so they decay without traffic.
	s.sloAvailability.Register(telemetry.Default())
	s.sloLatency.Register(telemetry.Default())
	s.routes()
	for i := 0; i < cfg.workers; i++ {
		s.wg.Add(1)
		go s.worker(s.pool[i])
	}
	return s, nil
}

// Handler returns the service's HTTP handler (scoring API, session API,
// /healthz, /metrics, /debug/telemetry).
func (s *Server) Handler() http.Handler { return s.mux }

// Addr returns the bound listen address after Start (useful with ":0").
func (s *Server) Addr() string {
	if v := s.addr.Load(); v != nil {
		return v.(string)
	}
	return ""
}

// Start listens on addr and serves in the background until Shutdown.
func (s *Server) Start(addr string) error {
	if !s.state.CompareAndSwap(0, 1) {
		return fmt.Errorf("server: already started")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("server: listen %s: %w", addr, err)
	}
	s.ln = ln
	s.addr.Store(ln.Addr().String())
	s.http = &http.Server{Handler: s.mux}
	go s.http.Serve(ln)
	return nil
}

// Shutdown drains the service: the listener closes immediately (new
// connections refused), every in-flight request completes and is answered,
// then the scoring workers exit. ctx bounds the drain; on expiry the
// remaining connections are closed forcefully.
func (s *Server) Shutdown(ctx context.Context) error {
	var err error
	// End the long-lived session streams first: their handlers hold
	// connections open indefinitely and would otherwise stall the drain.
	s.closeOnce.Do(func() { close(s.closing) })
	s.sessions.closeAll()
	if s.state.Swap(2) == 1 && s.http != nil {
		// Shutdown returns once every active request's handler has returned
		// — and handlers return only after their job was answered, so no
		// accepted work is dropped. The workers must therefore still be
		// draining the queue here; they stop below.
		err = s.http.Shutdown(ctx)
		if err != nil {
			s.http.Close()
		}
	}
	// quitOnce makes Shutdown idempotent: a supervisor (e.g. a gateway
	// test harness) may shut a backend down explicitly and again via
	// deferred cleanup.
	s.quitOnce.Do(func() { close(s.quit) })
	s.wg.Wait()
	return err
}

// batchMax is the most queued jobs one worker drains per wake-up
// (opportunistic micro-batching). Batching changes no output; it only
// saves scheduler round-trips when the queue is deep.
const batchMax = 8

// worker scores jobs until quit. Each wake-up drains up to batchMax queued
// jobs (micro-batching); after quit it finishes whatever is still queued so
// graceful shutdown never strands an accepted request.
func (s *Server) worker(ev *sti.Evaluator) {
	defer s.wg.Done()
	for {
		select {
		case j := <-s.jobs:
			drained := 1
			s.runJob(j, ev)
			// Opportunistic drain: score queued siblings without another
			// scheduler round-trip. The histogram records how many jobs this
			// wake-up actually drained, which is capped by — but on an empty
			// queue smaller than — batchMax.
		drain:
			for drained < batchMax {
				select {
				case j := <-s.jobs:
					s.runJob(j, ev)
					drained++
				default:
					break drain
				}
			}
			telBatchSize.Observe(float64(drained))
			telQueueDepth.Set(float64(len(s.jobs)))
		case <-s.quit:
			// Drain the residue, then exit.
			for {
				select {
				case j := <-s.jobs:
					s.runJob(j, ev)
				default:
					return
				}
			}
		}
	}
}

func (s *Server) runJob(j *job, ev *sti.Evaluator) {
	defer close(j.done)
	if j.ctx.Err() != nil {
		return // requester gave up (timeout/disconnect); don't burn the pool
	}
	j.run(ev)
}

// putWarm returns a session's warm-start state to the pool, dropping its
// retained expansion state first. A state still claimed by an in-flight
// evaluation (the session was deleted with an observe queued) is abandoned
// to the garbage collector instead of pooled — recycling it would hand two
// sessions the same live state.
func (s *Server) putWarm(ws *sti.WarmState) {
	if !ws.TryReset() {
		return
	}
	s.warmPool.Put(ws)
}

// errSaturated reports queue-full backpressure to the handlers.
var errSaturated = fmt.Errorf("server: scoring queue full")

// submit enqueues work for the evaluator pool without blocking: a full
// queue fails fast with errSaturated (the 429 path). On success the caller
// must wait for the returned job's done channel (or its context) before
// reading anything run wrote.
func (s *Server) submit(ctx context.Context, run func(ev *sti.Evaluator)) (*job, error) {
	j := &job{ctx: ctx, run: run, done: make(chan struct{})}
	select {
	case s.jobs <- j:
		telQueueDepth.Set(float64(len(s.jobs)))
		return j, nil
	default:
		return nil, errSaturated
	}
}

// score runs one scene evaluation on the pool and waits for it under ctx.
// The recorder carried by ctx (if any) receives the queue wait, the
// evaluation spans and the risk provenance, so the request's wide event
// links server → evaluator → reach timings.
func (s *Server) score(ctx context.Context, m roadmap.Map, ego vehicle.State, actors []*actor.Actor, trajs []actor.Trajectory) (sti.Result, sti.Provenance, error) {
	var res sti.Result
	var prov sti.Provenance
	rec := trace.FromContext(ctx)
	enq := time.Now()
	j, err := s.submit(ctx, func(ev *sti.Evaluator) {
		rec.Annotate("queue_wait_seconds", time.Since(enq).Seconds())
		t := telScoreSecs.Start()
		start := time.Now()
		tt := trajs
		if tt == nil {
			sp := rec.StartSpan("server.predict")
			tt = actor.PredictAll(actors, s.reach.NumSlices(), s.reach.SliceDt)
			sp.End()
		}
		sp := rec.StartSpan("server.evaluate")
		res, prov = ev.Score(ctx, sti.Query{Map: m, Ego: ego, Actors: actors, Trajs: tt}, nil)
		sp.End()
		t.Stop()
		s.noteScore(time.Since(start))
		telScenes.Inc()
	})
	if err != nil {
		return res, prov, err
	}
	select {
	case <-j.done:
		rec.Annotate("engine", prov.Engine)
		rec.Annotate("cache_state", prov.CacheState)
		rec.Annotate("combined_sti", res.Combined)
		if len(res.PerActor) > 0 {
			rec.Annotate("per_actor_sti", append([]float64(nil), res.PerActor...))
		}
		return res, prov, nil
	case <-ctx.Done():
		// The pool worker may still be executing run and writing res/prov;
		// returning those variables here would race with it. Callers only
		// consume the values when err == nil, so return zero values instead.
		telTimeouts.Inc()
		return sti.Result{}, sti.Provenance{}, ctx.Err()
	}
}

// completeTrajs fills the gaps of a partial explicit-trajectory set with
// CVTR predictions so every actor has a trajectory aligned to the reach
// configuration. hasTrajs=false returns nil, selecting the evaluator's
// prediction path wholesale.
func completeTrajs(cfg reach.Config, actors []*actor.Actor, trajs []actor.Trajectory, hasTrajs bool) []actor.Trajectory {
	if !hasTrajs {
		return nil
	}
	steps := cfg.NumSlices()
	for i, tr := range trajs {
		if tr.Len() == 0 {
			trajs[i] = actor.PredictCVTR(actors[i], steps, cfg.SliceDt)
		}
	}
	return trajs
}
