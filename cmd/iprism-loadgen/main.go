// Command iprism-loadgen drives the iprism-serve scoring API with
// scenario-derived scenes and reports client-observed latency percentiles,
// throughput, and error rates. It is the load harness behind the serving
// capacity numbers in DESIGN.md and the smoke stage of scripts/verify.sh.
//
//	iprism-serve -addr 127.0.0.1:8377 &
//	iprism-loadgen -target http://localhost:8377 -requests 1000 -concurrency 8
//	iprism-loadgen -target http://localhost:8377 -duration 10s -batch 16
//
// Any response that is neither 2xx nor a deliberate 429 backpressure
// rejection fails the run (exit 1), as does a measured scoring rate below
// -min-rate. With -o, a BENCH_serve_<date>.json snapshot (kind "serve") is
// written for cmd/iprism-benchdiff's serve-kind perf gate.
//
// The scenes are a fixed fixture mix: the lead-slowdown typology at seed
// 2024. Requests carry a 10 s client timeout, and the run reports its five
// slowest requests with their trace IDs.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/scenario"
	"repro/internal/scene"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

// The fixture mix and client policy every run uses.
const (
	fixtureTypology = scenario.LeadSlowdown
	fixtureSeed     = 2024
	clientTimeout   = 10 * time.Second
	slowestReported = 5
)

var (
	telReqSecs  = telemetry.NewHistogram("loadgen.request.seconds", telemetry.LatencyBuckets())
	telOK       = telemetry.NewCounter("loadgen.ok")
	telRejected = telemetry.NewCounter("loadgen.rejected")
	telErrors   = telemetry.NewCounter("loadgen.errors")
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "iprism-loadgen:", err)
		os.Exit(1)
	}
}

// report is the BENCH_serve_<date>.json schema: the shared bench envelope
// (date/toolchain/kind/telemetry) plus the load shape and client-side
// results.
type report struct {
	Kind      string `json:"kind"`
	Date      string `json:"date"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`

	Config struct {
		Typology    string `json:"typology"`
		Scenes      int    `json:"scenes"`
		Seed        int64  `json:"seed"`
		Requests    int    `json:"requests"`
		Concurrency int    `json:"concurrency"`
		Batch       int    `json:"batch"`
	} `json:"config"`

	Results struct {
		OK           int64   `json:"ok"`
		Rejected     int64   `json:"rejected_429"`
		Errors       int64   `json:"errors"`
		ScenesScored int64   `json:"scenes_scored"`
		Seconds      float64 `json:"seconds"`
		ScenesPerSec float64 `json:"scenes_per_sec"`
	} `json:"results"`

	// Fleet carries the gateway-mode extras (affinity and corpus-job
	// outcomes); nil for standalone kind-"serve" runs.
	Fleet *fleetResults `json:"fleet,omitempty"`

	Telemetry telemetry.Snapshot `json:"telemetry"`
}

func run() error {
	var (
		target      = flag.String("target", "", "base URL of a running iprism-serve, or of an iprism-gateway with -gateway (e.g. http://localhost:8377), required")
		requests    = flag.Int("requests", 300, "total requests to send (ignored when -duration is set)")
		duration    = flag.Duration("duration", 0, "send for this long instead of a fixed request count")
		concurrency = flag.Int("concurrency", 8, "concurrent client connections")
		batch       = flag.Int("batch", 0, "scenes per request via /v1/score/batch (0 or 1 = single-scene /v1/score)")
		scenes      = flag.Int("scenes", 60, "distinct fixture scenes to cycle through")
		minRate     = flag.Float64("min-rate", 0, "fail if scored scenes/sec falls below this (0 = off)")
		outDir      = flag.String("o", "", "directory for a BENCH_serve_<date>.json snapshot (empty = skip)")

		gatewayMode = flag.Bool("gateway", false, "fleet mode: -target is an iprism-gateway; half the -concurrency workers drive sticky sessions, the rest stateless scoring, and snapshots are kind \"fleet\"")
		maxErrRate  = flag.Float64("max-error-rate", 0, "fail if the error fraction of all requests exceeds this (0 = off)")
		maxMoves    = flag.Int("max-session-moves", -1, "fleet mode: fail if any session changes X-Backend more than this many times (-1 = off; failover costs one move)")
		jobScenes   = flag.Int("job-scenes", 0, "fleet mode: also submit a corpus job of this many scenes and wait for its results (0 = off)")
	)
	flag.Parse()

	if *target == "" {
		return fmt.Errorf("-target is required")
	}
	telemetry.Enable()

	fixtures, err := scenario.Fixtures(fixtureTypology, *scenes, fixtureSeed)
	if err != nil {
		return err
	}
	bodies, perReq, endpoint, err := encodeBodies(fixtures, *batch)
	if err != nil {
		return err
	}

	if *gatewayMode {
		return runFleet(fleetOpts{
			base:          *target,
			fixtures:      fixtures,
			scoreBodies:   bodies,
			scoreEndpoint: endpoint,
			perReq:        perReq,
			concurrency:   *concurrency,
			requests:      int64(*requests),
			duration:      *duration,
			minRate:       *minRate,
			maxErrRate:    *maxErrRate,
			maxMoves:      *maxMoves,
			jobScenes:     *jobScenes,
			outDir:        *outDir,
			scenes:        *scenes,
		})
	}

	url := *target + endpoint

	client := &http.Client{
		Timeout: clientTimeout,
		Transport: &http.Transport{
			MaxIdleConns:        *concurrency * 2,
			MaxIdleConnsPerHost: *concurrency * 2,
		},
	}

	deadline := time.Time{}
	total := int64(*requests)
	if *duration > 0 {
		deadline = time.Now().Add(*duration)
		total = 1 << 62 // bounded by the deadline instead
	}

	var next, ok, rejected, errs, scored int64
	slow := &slowTracker{k: slowestReported}
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < *concurrency; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := atomic.AddInt64(&next, 1) - 1
				if i >= total || (!deadline.IsZero() && time.Now().After(deadline)) {
					return
				}
				reqStart := time.Now()
				status, tid, err := post(client, url, bodies[i%int64(len(bodies))])
				slow.note(time.Since(reqStart).Seconds(), tid, status)
				switch {
				case err != nil:
					telErrors.Inc()
					atomic.AddInt64(&errs, 1)
					fmt.Fprintf(os.Stderr, "loadgen: request error: %v\n", err)
				case status/100 == 2:
					telOK.Inc()
					atomic.AddInt64(&ok, 1)
					atomic.AddInt64(&scored, int64(perReq))
				case status == http.StatusTooManyRequests:
					telRejected.Inc()
					atomic.AddInt64(&rejected, 1)
				default:
					telErrors.Inc()
					atomic.AddInt64(&errs, 1)
					fmt.Fprintf(os.Stderr, "loadgen: unexpected status %d\n", status)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	snap := telemetry.Default().Snapshot()
	lat := snap.Histograms["loadgen.request.seconds"]
	rate := float64(scored) / elapsed.Seconds()
	fmt.Printf("loadgen: %s %d scenes/request x %d requests in %s\n",
		endpoint, perReq, ok+rejected+errs, elapsed.Round(time.Millisecond))
	fmt.Printf("  ok %d   429 %d   errors %d\n", ok, rejected, errs)
	fmt.Printf("  latency p50 %s  p95 %s  p99 %s  max %s\n",
		fmtSec(lat.P50), fmtSec(lat.P95), fmtSec(lat.P99), fmtSec(lat.Max))
	fmt.Printf("  throughput %.0f scored scenes/sec\n", rate)
	if rs := slow.slowest(); len(rs) > 0 {
		// The trace IDs resolve server-side: /debug/requests?trace_id=…, the
		// journal's wide events, or iprism-risktrace -trace <journal>.
		fmt.Printf("  slowest requests:\n")
		for _, r := range rs {
			fmt.Printf("    %-10s status %d  trace %s\n",
				time.Duration(r.seconds*float64(time.Second)).Round(time.Microsecond), r.status, r.traceID)
		}
	}

	if *outDir != "" {
		var rep report
		rep.Kind = "serve"
		rep.Date = time.Now().Format(time.RFC3339)
		rep.GoVersion = runtime.Version()
		rep.GOOS, rep.GOARCH, rep.NumCPU = runtime.GOOS, runtime.GOARCH, runtime.NumCPU()
		rep.Config.Typology = fixtureTypology.String()
		rep.Config.Scenes = *scenes
		rep.Config.Seed = fixtureSeed
		rep.Config.Requests = int(ok + rejected + errs)
		rep.Config.Concurrency = *concurrency
		rep.Config.Batch = perReq
		rep.Results.OK = ok
		rep.Results.Rejected = rejected
		rep.Results.Errors = errs
		rep.Results.ScenesScored = scored
		rep.Results.Seconds = elapsed.Seconds()
		rep.Results.ScenesPerSec = rate
		rep.Telemetry = snap
		path := filepath.Join(*outDir, "BENCH_serve_"+time.Now().UTC().Format("2006-01-02T150405Z")+".json")
		raw, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
	}

	if errs > 0 {
		return fmt.Errorf("%d request(s) failed with errors or unexpected statuses", errs)
	}
	if ok == 0 {
		return fmt.Errorf("no request succeeded (%d rejected)", rejected)
	}
	if *minRate > 0 && rate < *minRate {
		return fmt.Errorf("throughput %.0f scenes/sec below required %.0f", rate, *minRate)
	}
	return nil
}

// encodeBodies pre-marshals the request bodies: one scene per body for the
// single endpoint, or batches cycling through the fixtures.
func encodeBodies(fixtures []scene.Scene, batch int) (bodies [][]byte, perReq int, endpoint string, err error) {
	if batch <= 1 {
		bodies = make([][]byte, len(fixtures))
		for i, sc := range fixtures {
			if bodies[i], err = scene.Encode(sc); err != nil {
				return nil, 0, "", err
			}
		}
		return bodies, 1, "/v1/score", nil
	}
	// As many distinct batches as fixtures, each a rotation of the pool.
	for off := 0; off < len(fixtures); off++ {
		req := scene.BatchRequest{Scenes: make([]scene.Scene, batch)}
		for j := 0; j < batch; j++ {
			req.Scenes[j] = fixtures[(off+j)%len(fixtures)]
		}
		raw, err := json.Marshal(req)
		if err != nil {
			return nil, 0, "", err
		}
		bodies = append(bodies, raw)
	}
	return bodies, batch, "/v1/score/batch", nil
}

// post sends one request stamped with a fresh X-Trace-Id so every scored
// scene is resolvable server-side (/debug/requests, journal wide events,
// /metrics exemplars). It returns the status and the trace ID it minted.
func post(client *http.Client, url string, body []byte) (int, string, error) {
	tid := trace.NewID().String()
	t := telReqSecs.Start()
	defer t.Stop()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, tid, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Trace-Id", tid)
	resp, err := client.Do(req)
	if err != nil {
		return 0, tid, err
	}
	defer resp.Body.Close()
	// Drain so the connection is reusable.
	var sink [512]byte
	for {
		if _, err := resp.Body.Read(sink[:]); err != nil {
			break
		}
	}
	return resp.StatusCode, tid, nil
}

// slowTracker retains the k slowest requests so their trace IDs can be
// printed after the run and resolved against the server's flight recorder.
type slowTracker struct {
	mu sync.Mutex
	k  int
	rs []slowReq
}

type slowReq struct {
	seconds float64
	traceID string
	status  int
}

func (s *slowTracker) note(seconds float64, traceID string, status int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rs = append(s.rs, slowReq{seconds, traceID, status})
	sort.Slice(s.rs, func(i, j int) bool { return s.rs[i].seconds > s.rs[j].seconds })
	if len(s.rs) > s.k {
		s.rs = s.rs[:s.k]
	}
}

func (s *slowTracker) slowest() []slowReq {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]slowReq(nil), s.rs...)
}

func fmtSec(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond).String()
}
