package experiments

import (
	"fmt"

	"repro/internal/actor"
	"repro/internal/metrics"
	"repro/internal/roadmap"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/sti"
	"repro/internal/vehicle"
)

// traceWorld reconstructs, from a recorded episode trace, everything the
// offline risk metrics need at step t: the ego state, the actor set (with
// yaw estimates), and each actor's ground-truth future trajectory for the
// remainder of the episode.
type traceWorld struct {
	m     roadmap.Map
	dt    float64
	trace []sim.StepRecord
}

func newTraceWorld(scn scenario.Scenario, trace []sim.StepRecord) (*traceWorld, error) {
	w, err := scn.Build()
	if err != nil {
		return nil, err
	}
	return &traceWorld{m: w.Map, dt: scn.Dt, trace: trace}, nil
}

func (tw *traceWorld) steps() int { return len(tw.trace) }

func (tw *traceWorld) ego(t int) vehicle.State { return tw.trace[t].Ego }

// actors reconstructs the actor set at step t. Scenario NPCs are all
// standard vehicles.
func (tw *traceWorld) actors(t int) []*actor.Actor {
	rec := tw.trace[t]
	out := make([]*actor.Actor, len(rec.ActorStates))
	for i, s := range rec.ActorStates {
		a := actor.NewVehicle(i+1, s)
		a.YawRate = rec.ActorYaws[i]
		out[i] = a
	}
	return out
}

// futures returns the recorded ground-truth trajectories from step t on.
func (tw *traceWorld) futures(t int) []actor.Trajectory {
	n := len(tw.trace[t].ActorStates)
	out := make([]actor.Trajectory, n)
	for i := 0; i < n; i++ {
		states := make([]vehicle.State, 0, len(tw.trace)-t)
		for k := t; k < len(tw.trace); k++ {
			states = append(states, tw.trace[k].ActorStates[i])
		}
		out[i] = actor.Trajectory{Dt: tw.dt, States: states}
	}
	return out
}

// scene assembles the metrics.Scene at step t with ground-truth futures.
func (tw *traceWorld) scene(t int, horizon float64) metrics.Scene {
	return metrics.Scene{
		Map:       tw.m,
		Ego:       tw.ego(t),
		EgoParams: vehicle.DefaultParams(),
		Actors:    tw.actors(t),
		Trajs:     tw.futures(t),
		Horizon:   horizon,
		Dt:        tw.dt,
	}
}

// EpisodeTrace holds one recorded episode's raw risk metrics at every
// MetricStride-th step: index k is simulator step k·MetricStride. Each
// section applies its own cap or window to these values.
type EpisodeTrace struct {
	STI, PKLAll, PKLHoldout, TTC, CIPA []float64
}

// Evidence is the one trace pass over the recorded suite episodes that
// every section of the report reads: the suites with each episode's risk
// traces, computed with one evaluator and one PKL fit.
type Evidence struct {
	Suites []Suite
	opt    Options
	eval   *sti.Evaluator
	// pklAll and pklHoldout are the two PKL fits of §V-A.
	pklAll, pklHoldout *metrics.PKLModel
}

// Trace runs the trace pass over every episode of the suites.
func Trace(suites []Suite, opt Options) (*Evidence, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	eval, err := sti.NewEvaluator(opt.Reach)
	if err != nil {
		return nil, err
	}
	pklAll, pklHoldout, err := FitPKLModels(suites, opt)
	if err != nil {
		return nil, err
	}
	ev := &Evidence{Suites: append([]Suite(nil), suites...), opt: opt, eval: eval, pklAll: pklAll, pklHoldout: pklHoldout}
	for i := range ev.Suites {
		s := &ev.Suites[i]
		s.Traces = make([]EpisodeTrace, len(s.Scenarios))
		for j, scn := range s.Scenarios {
			if s.Traces[j], err = ev.trace(scn, s.Outcomes[j].Trace); err != nil {
				return nil, err
			}
		}
	}
	return ev, nil
}

// trace computes the risk traces of one recorded episode of scn.
func (ev *Evidence) trace(scn scenario.Scenario, rec []sim.StepRecord) (EpisodeTrace, error) {
	var tr EpisodeTrace
	tw, err := newTraceWorld(scn, rec)
	if err != nil {
		return tr, err
	}
	for t := 0; t < tw.steps(); t += ev.opt.MetricStride {
		sc := tw.scene(t, ev.opt.Reach.Horizon)
		tr.STI = append(tr.STI, ev.eval.Combined(sti.Query{Map: sc.Map, Ego: sc.Ego, Actors: sc.Actors, Trajs: sc.Trajs}))
		tr.PKLAll = append(tr.PKLAll, ev.pklAll.PKLCombined(sc))
		tr.PKLHoldout = append(tr.PKLHoldout, ev.pklHoldout.PKLCombined(sc))
		tr.TTC = append(tr.TTC, metrics.TTC(sc))
		tr.CIPA = append(tr.CIPA, metrics.DistCIPA(sc))
	}
	return tr, nil
}

// TrainingScenario picks, among the accident episodes of typology ty, the
// one with the highest average combined STI up to the accident (§IV-B1),
// averaging every third trace point.
func (ev *Evidence) TrainingScenario(ty scenario.Typology) (int, error) {
	suite, ok := findSuite(ev.Suites, ty)
	if !ok {
		return 0, fmt.Errorf("experiments: missing %v suite", ty)
	}
	accidents := suite.Accidents()
	if len(accidents) == 0 {
		return 0, fmt.Errorf("experiments: %v has no accident scenarios to train on", ty)
	}
	best, bestAvg := accidents[0], -1.0
	for _, idx := range accidents {
		var vals []float64
		trace := suite.Traces[idx].STI
		for k := 0; k < len(trace) && k*ev.opt.MetricStride <= suite.Outcomes[idx].CollisionStep; k += 3 {
			vals = append(vals, trace[k])
		}
		if avg := stats.Mean(vals); avg > bestAvg {
			best, bestAvg = idx, avg
		}
	}
	return best, nil
}
