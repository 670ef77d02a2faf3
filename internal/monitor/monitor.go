// Package monitor implements the online risk assessor of the paper's
// §V-A/V-B: a passive recorder of STI / TTC / Dist. CIPA over an episode.
// It backs both the iprism.RiskMonitor facade (which adapts it to a
// simulator driver in a closed-loop episode) and the scoring service's
// session API (internal/server), where observations arrive over HTTP —
// hence the mutex: a Monitor may be observed and queried concurrently.
package monitor

import (
	"context"
	"math"
	"sync"

	"repro/internal/actor"
	"repro/internal/metrics"
	"repro/internal/reach"
	"repro/internal/roadmap"
	"repro/internal/sti"
	"repro/internal/telemetry"
	"repro/internal/vehicle"
)

// telRecordSeconds times one monitor sample (STI + TTC + Dist. CIPA) — the
// per-tick cost of the online risk assessor of §V-A/V-B.
var telRecordSeconds = telemetry.NewHistogram("monitor.record.seconds", telemetry.LatencyBuckets())

// Sample is one instant of online risk assessment.
type Sample struct {
	Time     float64
	STI      float64 // combined STI, [0, 1]
	TTC      float64 // seconds; +Inf when no in-path closing actor
	DistCIPA float64 // metres; +Inf when no in-path actor
	// MostThreatening is the ID of the highest-STI actor, or -1.
	MostThreatening int
}

// Monitor records risk samples over a rolling episode. It never modifies
// the control of the system it observes and is safe for concurrent use.
type Monitor struct {
	eval *sti.Evaluator
	// warm, when set, carries this monitor's session stream state for the
	// evaluator's temporal-coherence warm start. The WarmState's own CAS
	// gate serialises concurrent observes (losers score cold), so the
	// monitor just threads it through.
	warm *sti.WarmState

	mu      sync.Mutex
	samples []Sample
}

// New builds a monitor with its own evaluator.
func New(cfg reach.Config) (*Monitor, error) {
	eval, err := sti.NewEvaluator(cfg)
	if err != nil {
		return nil, err
	}
	return NewWithEvaluator(eval), nil
}

// NewWithEvaluator builds a monitor on an existing evaluator — the scoring
// service shares its evaluator pool across many sessions this way. eval
// must be non-nil.
func NewWithEvaluator(eval *sti.Evaluator) *Monitor {
	return &Monitor{eval: eval}
}

// SetWarmState attaches a warm-start state for this monitor's observation
// stream (one per session; never share across monitors). Call before the
// first observation; the caller keeps ownership and is responsible for
// resetting/pooling it when the stream ends.
func (m *Monitor) SetWarmState(ws *sti.WarmState) { m.warm = ws }

// Samples returns a copy of the recorded trace; callers may mutate it
// freely without corrupting the monitor's history.
func (m *Monitor) Samples() []Sample {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Sample, len(m.samples))
	copy(out, m.samples)
	return out
}

// Len returns the number of recorded samples.
func (m *Monitor) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.samples)
}

// Reset clears the recorded trace.
func (m *Monitor) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.samples = nil
}

// PeakSTI returns the maximum recorded combined STI. NaN samples are
// skipped, matching RiskyIntervals.
func (m *Monitor) PeakSTI() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	peak := 0.0
	for _, s := range m.samples {
		if !math.IsNaN(s.STI) && s.STI > peak {
			peak = s.STI
		}
	}
	return peak
}

// Telemetry returns a snapshot of the process-wide telemetry registry —
// the risk-assessment counters and latency histograms accumulated so far
// (all zero unless telemetry.Enable has been called).
func (m *Monitor) Telemetry() telemetry.Snapshot {
	return telemetry.Default().Snapshot()
}

// Observe scores one scene at time t and records the sample: every
// observation the caller sends is recorded. When trajs is nil every
// actor's trajectory is CVTR-predicted (the paper's online configuration);
// explicit trajectories take precedence. Spans land on the trace.Recorder
// carried by ctx, if any. It returns the recorded sample and the
// evaluation's risk provenance.
func (m *Monitor) Observe(ctx context.Context, rm roadmap.Map, ego vehicle.State, egoParams vehicle.Params, actors []*actor.Actor, trajs []actor.Trajectory, t float64) (Sample, sti.Provenance) {
	defer telRecordSeconds.Start().Stop()
	cfg := m.eval.Config()
	if trajs == nil {
		trajs = actor.PredictAll(actors, cfg.NumSlices(), cfg.SliceDt)
	}
	// EvaluateWarmTraced warm-starts from the previous observation when a
	// session attached a WarmState, and scores cold when m.warm is nil (a
	// monitor built outside a server session), so this is the one call
	// site for both.
	res, prov := m.eval.EvaluateWarmTraced(ctx, rm, ego, actors, trajs, m.warm)
	scene := metrics.Scene{
		Map:       rm,
		Ego:       ego,
		EgoParams: egoParams,
		Actors:    actors,
		Trajs:     trajs,
		Horizon:   cfg.Horizon,
		Dt:        cfg.SliceDt,
	}
	idx, _ := res.MostThreatening()
	id := -1
	if idx >= 0 {
		id = actors[idx].ID
	}
	s := Sample{
		Time:            t,
		STI:             res.Combined,
		TTC:             metrics.TTC(scene),
		DistCIPA:        metrics.DistCIPA(scene),
		MostThreatening: id,
	}
	m.mu.Lock()
	m.samples = append(m.samples, s)
	m.mu.Unlock()
	return s, prov
}

// RiskyIntervals returns the [start, end) time intervals during which the
// recorded STI exceeded the threshold.
func (m *Monitor) RiskyIntervals(threshold float64) [][2]float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out [][2]float64
	open := false
	start := 0.0
	for _, s := range m.samples {
		risky := s.STI > threshold && !math.IsNaN(s.STI)
		switch {
		case risky && !open:
			open, start = true, s.Time
		case !risky && open:
			open = false
			out = append(out, [2]float64{start, s.Time})
		}
	}
	if open && len(m.samples) > 0 {
		out = append(out, [2]float64{start, m.samples[len(m.samples)-1].Time})
	}
	return out
}
