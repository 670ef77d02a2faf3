package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/scene"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

// Fleet mode drives an iprism-gateway the way a deployment would: a pool
// of sticky sessions streaming observations (the REACT monitoring loop),
// stateless scoring traffic spread across the fleet, and optionally one
// bulk corpus job riding along. On top of the standalone mode's error/rate
// gates it asserts session affinity: every observe response carries
// X-Backend, and a session whose backend changes more than
// -max-session-moves times (failover legitimately costs one move) fails
// the run.

type fleetOpts struct {
	base     string
	fixtures []scene.Scene
	// scoreBodies/scoreEndpoint/perReq carry the standalone mode's -batch
	// encoding: the stateless score workers reuse it, so a fleet run can
	// amortize the gateway hop over /v1/score/batch exactly like a direct
	// run would. Session observes are always single scenes (one tick each).
	scoreBodies    [][]byte
	scoreEndpoint  string
	perReq         int
	concurrency    int
	sessionWorkers int
	requests       int64
	duration       time.Duration
	rps            int
	timeout        time.Duration
	minRate        float64
	maxErrRate     float64
	maxMoves       int
	jobScenes      int
	outDir         string
	typology       string
	scenes         int
	seed           int64
}

// fleetResults is the fleet-specific block of a kind-"fleet" snapshot.
type fleetResults struct {
	Backends          int     `json:"backends"`
	SessionWorkers    int     `json:"session_workers"`
	Sessions          int     `json:"sessions"`
	SessionMovesMax   int     `json:"session_moves_max"`
	SessionMovesTotal int     `json:"session_moves_total"`
	JobScenes         int     `json:"job_scenes"`
	JobCompleted      int     `json:"job_completed"`
	JobFailed         int     `json:"job_failed"`
	JobSeconds        float64 `json:"job_seconds"`
}

func runFleet(o fleetOpts) error {
	if o.sessionWorkers < 0 {
		o.sessionWorkers = 0 // explicit: pure scoring traffic, no sessions
	} else if o.sessionWorkers == 0 {
		o.sessionWorkers = o.concurrency / 2
	}
	if o.sessionWorkers > o.concurrency {
		o.sessionWorkers = o.concurrency
	}
	scoreWorkers := o.concurrency - o.sessionWorkers

	client := &http.Client{
		Timeout: o.timeout,
		Transport: &http.Transport{
			MaxIdleConns:        o.concurrency * 2,
			MaxIdleConnsPerHost: o.concurrency * 2,
		},
	}

	var pace <-chan time.Time
	if o.rps > 0 {
		t := time.NewTicker(time.Second / time.Duration(o.rps))
		defer t.Stop()
		pace = t.C
	}
	deadline := time.Time{}
	total := o.requests
	if o.duration > 0 {
		deadline = time.Now().Add(o.duration)
		total = 1 << 62
	}

	var next, ok, rejected, errs, scored int64
	done := func() bool {
		if atomic.AddInt64(&next, 1)-1 >= total {
			return true
		}
		return !deadline.IsZero() && time.Now().After(deadline)
	}
	account := func(status int, err error, scenes int) {
		switch {
		case err != nil:
			telErrors.Inc()
			atomic.AddInt64(&errs, 1)
			fmt.Fprintf(os.Stderr, "loadgen: request error: %v\n", err)
		case status/100 == 2:
			telOK.Inc()
			atomic.AddInt64(&ok, 1)
			atomic.AddInt64(&scored, int64(scenes))
		case status == http.StatusTooManyRequests:
			telRejected.Inc()
			atomic.AddInt64(&rejected, 1)
		default:
			telErrors.Inc()
			atomic.AddInt64(&errs, 1)
			fmt.Fprintf(os.Stderr, "loadgen: unexpected status %d\n", status)
		}
	}

	// Per-session affinity log: how many times each session's X-Backend
	// changed after creation, and which backends served anything at all.
	moves := make([]int, o.sessionWorkers)
	var backendsSeen sync.Map

	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < o.sessionWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id, backend, err := fleetCreateSession(client, o.base)
			if err != nil {
				fmt.Fprintf(os.Stderr, "loadgen: session create: %v\n", err)
				atomic.AddInt64(&errs, 1)
				return
			}
			backendsSeen.Store(backend, true)
			// Each worker replays its fixture scene as a tick stream. Session
			// observe times must be strictly increasing, so the scene is
			// re-encoded with an advancing timestamp rather than sent verbatim.
			sc := o.fixtures[w%len(o.fixtures)]
			for tick := 0; !done(); tick++ {
				if pace != nil {
					<-pace
				}
				sc.Time = float64(tick) * 0.1
				body, err := scene.Encode(sc)
				if err != nil {
					account(0, err, 1)
					continue
				}
				status, served, err := fleetPost(client, o.base+"/v1/sessions/"+id+"/observe", body)
				account(status, err, 1)
				if err == nil && served != "" && served != backend {
					moves[w]++
					backend = served
					backendsSeen.Store(served, true)
				}
			}
		}(w)
	}
	for w := 0; w < scoreWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int64(w); !done(); i++ {
				if pace != nil {
					<-pace
				}
				status, served, err := fleetPost(client, o.base+o.scoreEndpoint, o.scoreBodies[i%int64(len(o.scoreBodies))])
				account(status, err, o.perReq)
				if served != "" {
					backendsSeen.Store(served, true)
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	totalReqs := ok + rejected + errs
	movesTotal, movesMax := 0, 0
	for _, m := range moves {
		movesTotal += m
		if m > movesMax {
			movesMax = m
		}
	}
	nBackends := 0
	backendsSeen.Range(func(_, _ any) bool { nBackends++; return true })

	snap := telemetry.Default().Snapshot()
	lat := snap.Histograms["loadgen.request.seconds"]
	rate := float64(scored) / elapsed.Seconds()
	errRate := 0.0
	if totalReqs > 0 {
		errRate = float64(errs) / float64(totalReqs)
	}
	fmt.Printf("loadgen[fleet]: %d requests in %s across %d backend(s) (%d session + %d score workers)\n",
		totalReqs, elapsed.Round(time.Millisecond), nBackends, o.sessionWorkers, scoreWorkers)
	fmt.Printf("  ok %d   429 %d   errors %d (%.2f%%)\n", ok, rejected, errs, 100*errRate)
	fmt.Printf("  latency p50 %s  p95 %s  p99 %s  max %s\n",
		fmtSec(lat.P50), fmtSec(lat.P95), fmtSec(lat.P99), fmtSec(lat.Max))
	fmt.Printf("  throughput %.0f scored scenes/sec\n", rate)
	fmt.Printf("  session moves: max %d, total %d over %d sessions\n", movesMax, movesTotal, o.sessionWorkers)

	fleet := fleetResults{
		Backends:          nBackends,
		SessionWorkers:    o.sessionWorkers,
		Sessions:          o.sessionWorkers,
		SessionMovesMax:   movesMax,
		SessionMovesTotal: movesTotal,
	}
	var jobErr error
	if o.jobScenes > 0 {
		jobErr = fleetRunJob(client, o.base, o.fixtures, o.jobScenes, &fleet)
	}

	if o.outDir != "" {
		var rep report
		rep.Kind = "fleet"
		rep.Date = time.Now().Format(time.RFC3339)
		rep.GoVersion = runtime.Version()
		rep.GOOS, rep.GOARCH, rep.NumCPU = runtime.GOOS, runtime.GOARCH, runtime.NumCPU()
		rep.Config.Typology = o.typology
		rep.Config.Scenes = o.scenes
		rep.Config.Seed = o.seed
		rep.Config.Requests = int(totalReqs)
		rep.Config.Concurrency = o.concurrency
		rep.Config.Batch = o.perReq
		rep.Config.RPS = o.rps
		rep.Results.OK = ok
		rep.Results.Rejected = rejected
		rep.Results.Errors = errs
		rep.Results.ScenesScored = scored
		rep.Results.Seconds = elapsed.Seconds()
		rep.Results.ScenesPerSec = rate
		rep.Fleet = &fleet
		rep.Telemetry = snap
		path := filepath.Join(o.outDir, "BENCH_serve_"+time.Now().UTC().Format("2006-01-02T150405Z")+".json")
		raw, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
	}

	if jobErr != nil {
		return jobErr
	}
	if ok == 0 {
		return fmt.Errorf("no request succeeded (%d rejected, %d errors)", rejected, errs)
	}
	if o.maxErrRate > 0 && errRate > o.maxErrRate {
		return fmt.Errorf("error rate %.2f%% above allowed %.2f%%", 100*errRate, 100*o.maxErrRate)
	}
	if o.maxErrRate == 0 && errs > 0 {
		return fmt.Errorf("%d request(s) failed with errors or unexpected statuses", errs)
	}
	if o.maxMoves >= 0 && movesMax > o.maxMoves {
		return fmt.Errorf("a session moved backends %d times, allowed %d (affinity broken)", movesMax, o.maxMoves)
	}
	if o.minRate > 0 && rate < o.minRate {
		return fmt.Errorf("throughput %.0f scenes/sec below required %.0f", rate, o.minRate)
	}
	return nil
}

// fleetCreateSession opens one sticky session through the gateway and
// returns its ID plus the owning backend from X-Backend.
func fleetCreateSession(client *http.Client, base string) (id, backend string, err error) {
	resp, err := client.Post(base+"/v1/sessions", "application/json", bytes.NewReader([]byte("{}")))
	if err != nil {
		return "", "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return "", "", fmt.Errorf("session create: status %d: %s", resp.StatusCode, body)
	}
	var created scene.SessionCreateResponse
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		return "", "", err
	}
	return created.ID, resp.Header.Get("X-Backend"), nil
}

// fleetPost is post() plus the gateway's X-Backend routing marker.
func fleetPost(client *http.Client, url string, body []byte) (status int, backend string, err error) {
	tid := trace.NewID().String()
	t := telReqSecs.Start()
	defer t.Stop()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Trace-Id", tid)
	resp, err := client.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	var sink [512]byte
	for {
		if _, err := resp.Body.Read(sink[:]); err != nil {
			break
		}
	}
	return resp.StatusCode, resp.Header.Get("X-Backend"), nil
}

// fleetRunJob submits one corpus job (fixtures cycled to n scenes), polls
// it to completion, fetches the results artifact, and checks every scene
// came back scored and index-aligned.
func fleetRunJob(client *http.Client, base string, fixtures []scene.Scene, n int, fleet *fleetResults) error {
	corpus := scene.JobRequest{Scenes: make([]scene.Scene, n)}
	for i := 0; i < n; i++ {
		corpus.Scenes[i] = fixtures[i%len(fixtures)]
	}
	raw, err := scene.EncodeJobRequest(corpus)
	if err != nil {
		return err
	}
	start := time.Now()
	resp, err := client.Post(base+"/v1/jobs", "application/json", bytes.NewReader(raw))
	if err != nil {
		return fmt.Errorf("job submit: %w", err)
	}
	var st scene.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("job submit: status %d (%v)", resp.StatusCode, err)
	}
	fmt.Printf("  job %s: %d scenes submitted\n", st.ID, st.Total)

	deadline := time.Now().Add(2 * time.Minute)
	for st.State != scene.JobStateDone {
		if time.Now().After(deadline) {
			return fmt.Errorf("job %s still %s after 2m (%d/%d)", st.ID, st.State, st.Completed, st.Total)
		}
		time.Sleep(100 * time.Millisecond)
		resp, err := client.Get(base + "/v1/jobs/" + st.ID)
		if err != nil {
			continue // gateway mid-failover; keep polling
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("job poll: %w", err)
		}
	}
	resp, err = client.Get(base + "/v1/jobs/" + st.ID + "/results")
	if err != nil {
		return fmt.Errorf("job results: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("job results: status %d", resp.StatusCode)
	}
	var res scene.JobResults
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		return err
	}
	if len(res.Results) != n {
		return fmt.Errorf("job returned %d results for %d scenes", len(res.Results), n)
	}
	for i, r := range res.Results {
		if r.Index != i {
			return fmt.Errorf("job result %d carries index %d (misaligned)", i, r.Index)
		}
	}
	fleet.JobScenes = st.Total
	fleet.JobCompleted = st.Completed
	fleet.JobFailed = st.Failed
	fleet.JobSeconds = time.Since(start).Seconds()
	fmt.Printf("  job %s: %d completed, %d failed in %.1fs\n", st.ID, st.Completed, st.Failed, fleet.JobSeconds)
	if st.Failed > 0 {
		return fmt.Errorf("job %s failed %d of %d scenes", st.ID, st.Failed, st.Total)
	}
	return nil
}
