package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/scene"
	"repro/internal/telemetry"
)

var (
	telJobsAccepted = telemetry.NewCounter("gateway.jobs.accepted")
	telJobsDone     = telemetry.NewCounter("gateway.jobs.completed")
	telJobScenes    = telemetry.NewCounter("gateway.jobs.scenes")
	telJobFails     = telemetry.NewCounter("gateway.jobs.scene_failures")
	telJobThrottled = telemetry.NewCounter("gateway.jobs.backpressure_waits")
	telJobsRunning  = telemetry.NewGauge("gateway.jobs.running")
)

// job is one corpus scoring run. Each results slot is written exactly once
// by the worker goroutine that owns that index, then read only after done
// closes — no per-slot locking needed; the progress counters are atomics
// so /v1/jobs/{id} can poll a running job cheaply.
type job struct {
	id        string
	total     int
	completed atomic.Int64
	failed    atomic.Int64
	results   []scene.JobSceneResult
	done      chan struct{}
}

func (j *job) finished() bool {
	select {
	case <-j.done:
		return true
	default:
		return false
	}
}

func (j *job) status() scene.JobStatus {
	st := scene.JobStatus{
		Version:   scene.JobVersion,
		ID:        j.id,
		State:     scene.JobStateRunning,
		Total:     j.total,
		Completed: int(j.completed.Load()),
		Failed:    int(j.failed.Load()),
	}
	if j.finished() {
		st.State = scene.JobStateDone
	}
	return st
}

// jobTable retains running and recently completed jobs, evicting the
// oldest completed job past the cap. Running jobs are never evicted, so a
// table full of running jobs rejects new submissions (backpressure).
type jobTable struct {
	mu    sync.Mutex
	jobs  map[string]*job
	order []string // insertion order, for eviction
	max   int
}

func (t *jobTable) init(max int) {
	t.jobs = make(map[string]*job)
	t.max = max
}

func (t *jobTable) add(j *job) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.jobs) >= t.max {
		evicted := false
		for i, id := range t.order {
			if t.jobs[id].finished() {
				delete(t.jobs, id)
				t.order = append(t.order[:i], t.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			return fmt.Errorf("job table full (%d jobs running)", len(t.jobs))
		}
	}
	t.jobs[j.id] = j
	t.order = append(t.order, j.id)
	return nil
}

func (t *jobTable) get(id string) (*job, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j, ok := t.jobs[id]
	return j, ok
}

// handleJobSubmit accepts a corpus (iprism.job/v1), answers 202 with the
// job handle immediately, and scores the scenes in the background across
// the healthy fleet under the jobWorkers concurrency bound.
func (g *Gateway) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxJobBytes))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, scene.ErrorResponse{Error: fmt.Sprintf("read body: %v", err)})
		return
	}
	req, err := scene.DecodeJobRequest(body, g.cfg.maxJobScenes)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, scene.ErrorResponse{Error: err.Error()})
		return
	}
	j := &job{
		id:      newID("job-"),
		total:   len(req.Scenes),
		results: make([]scene.JobSceneResult, len(req.Scenes)),
		done:    make(chan struct{}),
	}
	if err := g.jobs.add(j); err != nil {
		w.Header().Set("Retry-After", "5")
		writeJSON(w, http.StatusTooManyRequests, scene.ErrorResponse{Error: err.Error()})
		return
	}
	telJobsAccepted.Inc()
	g.wg.Add(1)
	go g.runJob(j, req.Scenes)
	writeJSON(w, http.StatusAccepted, j.status())
}

func (g *Gateway) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := g.jobs.get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, scene.ErrorResponse{Error: "unknown job"})
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

// handleJobResults serves the per-scene STI artifact: 200 JobResults once
// done, 202 with the live JobStatus while still running (poll again).
func (g *Gateway) handleJobResults(w http.ResponseWriter, r *http.Request) {
	j, ok := g.jobs.get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, scene.ErrorResponse{Error: "unknown job"})
		return
	}
	if !j.finished() {
		writeJSON(w, http.StatusAccepted, j.status())
		return
	}
	writeJSON(w, http.StatusOK, scene.JobResults{Version: scene.JobVersion, ID: j.id, Results: j.results})
}

// runJob drives one corpus: scenes fan out over the healthy fleet, at most
// jobWorkers in flight across ALL jobs (the semaphore is gateway-global),
// so a bulk corpus cannot crowd out interactive scoring traffic.
func (g *Gateway) runJob(j *job, scenes []scene.Scene) {
	defer g.wg.Done()
	g.adjustRunningGauge(+1)
	var wg sync.WaitGroup
	for i := range scenes {
		select {
		case g.jobSem <- struct{}{}:
		case <-g.quit:
			// Shutdown: fail the not-yet-started remainder and finish.
			for k := i; k < len(scenes); k++ {
				j.results[k] = scene.JobSceneResult{Index: k, MostThreatening: -1, Error: "gateway shut down before scene was scored"}
				j.failed.Add(1)
				telJobFails.Inc()
			}
			wg.Wait()
			g.finishJob(j)
			return
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-g.jobSem }()
			g.scoreJobScene(j, i, scenes[i])
		}(i)
	}
	wg.Wait()
	g.finishJob(j)
}

// adjustRunningGauge serialises the gauge's read-modify-write under the
// table lock (Gauge has no Add, and concurrent runJob starts/exits would
// otherwise drop updates).
func (g *Gateway) adjustRunningGauge(delta float64) {
	g.jobs.mu.Lock()
	telJobsRunning.Set(telJobsRunning.Value() + delta)
	g.jobs.mu.Unlock()
}

func (g *Gateway) finishJob(j *job) {
	close(j.done)
	g.adjustRunningGauge(-1)
	telJobsDone.Inc()
	g.logf("gateway: job %s done: %d scored, %d failed", j.id, j.total-int(j.failed.Load()), j.failed.Load())
}

// scoreJobScene scores one scene against the fleet. Backpressure (429) is
// flow control, not failure: the worker sleeps out the backend's
// Retry-After (capped) and tries again — this is where the job tier's
// "respect backpressure" contract lives. Connection errors and 5xx rotate
// to the next healthy backend with bounded attempts. Job retries ride
// outside the interactive retry budget; the jobWorkers semaphore is
// already the stricter bound.
func (g *Gateway) scoreJobScene(j *job, idx int, sc scene.Scene) {
	res := scene.JobSceneResult{Index: idx, MostThreatening: -1}
	defer func() {
		j.results[idx] = res
		if res.Error != "" {
			j.failed.Add(1)
			telJobFails.Inc()
		} else {
			j.completed.Add(1)
		}
		telJobScenes.Inc()
	}()
	body, err := scene.Encode(sc)
	if err != nil {
		res.Error = err.Error()
		return
	}
	hdr := make(http.Header)
	hdr.Set("Content-Type", "application/json")
	hardFails := 0
	backoffs := 0
	for {
		select {
		case <-g.quit:
			res.Error = "gateway shut down mid-job"
			return
		default:
		}
		ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
		cands := g.spread()
		resp, err := g.attempt(ctx, cands[0], http.MethodPost, "/v1/score", body, hdr)
		if err != nil {
			cancel()
			hardFails++
			if hardFails >= 2*maxAttempts {
				res.Error = fmt.Sprintf("scene unscorable after %d attempts: %v", hardFails, err)
				return
			}
			continue
		}
		switch resp.StatusCode {
		case http.StatusOK:
			var sr scene.ScoreResponse
			err := json.NewDecoder(resp.Body).Decode(&sr)
			resp.Body.Close()
			cancel()
			if err != nil {
				res.Error = fmt.Sprintf("decode score: %v", err)
				return
			}
			res.Combined = sr.Combined
			res.MostThreatening = sr.MostThreatening
			for _, a := range sr.Actors {
				res.Actors = append(res.Actors, scene.JobActorScore{ID: a.ID, STI: a.STI})
			}
			return
		case http.StatusTooManyRequests:
			// Honour the backend's own estimate of when capacity returns.
			ra := retryAfter(resp.Header.Get("Retry-After"), g.cfg.jobRetryAfterCap)
			drain(resp)
			resp.Body.Close()
			cancel()
			telJobThrottled.Inc()
			backoffs++
			if backoffs > 60 {
				res.Error = "backend saturated: gave up after 60 backoff waits"
				return
			}
			select {
			case <-time.After(ra):
			case <-g.quit:
				res.Error = "gateway shut down mid-job"
				return
			}
		default:
			var e scene.ErrorResponse
			json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&e)
			drain(resp)
			resp.Body.Close()
			cancel()
			if resp.StatusCode < http.StatusInternalServerError {
				// 4xx is deterministic: retrying the same scene cannot help.
				res.Error = fmt.Sprintf("backend rejected scene (%d): %s", resp.StatusCode, e.Error)
				return
			}
			hardFails++
			if hardFails >= 2*maxAttempts {
				res.Error = fmt.Sprintf("backend error (%d): %s", resp.StatusCode, e.Error)
				return
			}
		}
	}
}

// retryAfter parses a Retry-After seconds value, clamped to (0, cap].
func retryAfter(h string, cap time.Duration) time.Duration {
	secs, err := strconv.Atoi(h)
	if err != nil || secs < 1 {
		return min(time.Second, cap)
	}
	d := time.Duration(secs) * time.Second
	return min(d, cap)
}
