package iprism

import (
	"repro/internal/actor"
	"repro/internal/reach"
	"repro/internal/render"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// RenderScene is a Fig. 7-style SVG frame description.
type RenderScene = render.Scene

// RenderOptions control SVG rendering.
type RenderOptions = render.Options

// RenderSVG draws a scene (road, reach-tube, STI-coloured actors) as SVG.
func RenderSVG(s RenderScene, opt RenderOptions) string { return render.SVG(s, opt) }

// ComputeTube runs Algorithm 1 directly, returning the ego's reach-tube
// against the given actors (CVTR-predicted). Set cfg.RecordPoints to use
// the result with RenderSVG.
func ComputeTube(m Map, ego VehicleState, actors []*Actor, cfg ReachConfig) reach.Tube {
	trajs := actor.PredictAll(actors, cfg.NumSlices(), cfg.SliceDt)
	obs := reach.BuildObstacles(actors, trajs, cfg)
	return reach.Compute(m, obs, ego, cfg, nil)
}

// SaveEpisodeTrace writes a recorded episode to a JSON-Lines file.
func SaveEpisodeTrace(path string, out Outcome, dt float64) error {
	return sim.SaveTrace(path, out, dt)
}

// LoadEpisodeTrace reads a trace written by SaveEpisodeTrace.
func LoadEpisodeTrace(path string) (sim.TraceHeader, []sim.StepRecord, error) {
	return sim.LoadTrace(path)
}

// RunRecordedEpisode is RunEpisode with step-by-step trace recording.
func RunRecordedEpisode(w *World, driver Driver, mit Mitigator) Outcome {
	return sim.Run(w, driver, mit, sim.RunConfig{RecordTrace: true})
}

// SaveScenarioSuite exports scenario instances as JSON (the equivalent of
// the paper's published 4810-scenario benchmark artefact).
func SaveScenarioSuite(scns []Scenario, path string) error {
	return scenario.SaveSuite(scns, path)
}

// LoadScenarioSuite imports a suite written by SaveScenarioSuite.
func LoadScenarioSuite(path string) ([]Scenario, error) {
	return scenario.LoadSuite(path)
}
