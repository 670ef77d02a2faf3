// Command iprism-render draws street scenes as SVG in the style of the
// paper's Fig. 7: either one of the four case studies (-case) or a step of
// a generated NHTSA scenario (-typology/-id/-step), with the ego's
// reach-tube shaded and actors coloured by STI. With -journal it instead
// plots the training curves (reward/epsilon/loss per episode) recorded in a
// telemetry run journal, e.g. one written by iprism-train -journal.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/actor"
	"repro/internal/agent"
	"repro/internal/dataset"
	"repro/internal/reach"
	"repro/internal/render"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/sti"
	"repro/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "iprism-render:", err)
		os.Exit(1)
	}
}

var typologyNames = map[string]scenario.Typology{
	"ghost-cut-in":  scenario.GhostCutIn,
	"lead-cut-in":   scenario.LeadCutIn,
	"lead-slowdown": scenario.LeadSlowdown,
	"rear-end":      scenario.RearEnd,
	"roundabout":    scenario.RoundaboutCutIn,
}

func run() error {
	var (
		caseName = flag.String("case", "", "render a Fig. 7 case study: pedestrian|oversized|cluttered|pullout")
		typology = flag.String("typology", "ghost-cut-in", "scenario typology to render")
		id       = flag.Int("id", 0, "scenario instance index")
		step     = flag.Int("step", 50, "simulation step to render (0.1 s each)")
		seed     = flag.Int64("seed", 2024, "scenario seed")
		journal  = flag.String("journal", "", "plot training curves from a JSONL run journal instead of a scene")
		smooth   = flag.Int("smooth", 0, "reward moving-average window for -journal (0 = auto)")
		out      = flag.String("o", "scene.svg", "output SVG path")
	)
	flag.Parse()

	if *journal != "" {
		return renderJournal(*journal, *smooth, *out)
	}

	cfg := reach.DefaultConfig()
	cfg.RecordPoints = true
	eval, err := sti.NewEvaluator(reach.DefaultConfig())
	if err != nil {
		return err
	}

	var scene render.Scene
	if *caseName != "" {
		cs, err := findCase(*caseName)
		if err != nil {
			return err
		}
		scene = render.Scene{
			Map: cs.Map, Ego: cs.Ego, Actors: cs.Actors,
			Risk:  cs.Evaluate(eval),
			Title: cs.Name,
		}
	} else {
		ty, ok := typologyNames[*typology]
		if !ok {
			return fmt.Errorf("unknown typology %q", *typology)
		}
		scns := scenario.GenerateValid(ty, *id+1, *seed)
		if *id >= len(scns) {
			return fmt.Errorf("instance %d unavailable (only %d valid)", *id, len(scns))
		}
		scn := scns[*id]
		w, err := scn.Build()
		if err != nil {
			return err
		}
		driver := agent.NewLBC(agent.DefaultLBCConfig())
		driver.Reset()
		for i := 0; i < *step; i++ {
			obs := w.Observe()
			if ev := w.Advance(driver.Act(obs)); ev.EgoCollision {
				fmt.Fprintf(os.Stderr, "note: collision at step %d; rendering that frame\n", i)
				break
			}
		}
		obs := w.Observe()
		risk, _ := eval.Score(context.Background(), sti.Query{Map: w.Map, Ego: obs.Ego, Actors: obs.Actors}, nil)
		scene = render.Scene{
			Map: w.Map, Ego: obs.Ego, Actors: obs.Actors,
			Risk:  risk,
			Title: fmt.Sprintf("%s #%d @ t=%.1fs", ty, scn.ID, obs.Time),
		}
	}

	// Reach-tube for the rendered frame.
	trajs := actor.PredictAll(scene.Actors, cfg.NumSlices(), cfg.SliceDt)
	obs := reach.BuildObstacles(scene.Actors, trajs, cfg)
	tube := reach.Compute(scene.Map, obs, scene.Ego, cfg, nil)
	scene.Tube = &tube

	svg := render.SVG(scene, render.Options{Window: 70})
	if err := os.WriteFile(*out, []byte(svg), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d bytes)\n", *out, len(svg))
	return nil
}

// renderJournal plots per-episode training curves from a telemetry JSONL
// journal (smc.episode events) and writes them as SVG.
func renderJournal(path string, smooth int, out string) error {
	events, err := telemetry.ReadJournalFile(path)
	if err != nil {
		return err
	}
	points := render.EpisodePoints(events)
	svg, err := render.CurvesSVG(points, render.CurveOptions{Smooth: smooth})
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if err := os.WriteFile(out, []byte(svg), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d episodes, %d bytes)\n", out, len(points), len(svg))
	return nil
}

func findCase(name string) (dataset.CaseStudy, error) {
	for _, cs := range dataset.CaseStudies() {
		if strings.Contains(strings.ReplaceAll(cs.Name, " ", ""), strings.ToLower(name)) ||
			strings.Contains(cs.Name, strings.ToLower(name)) {
			return cs, nil
		}
	}
	return dataset.CaseStudy{}, fmt.Errorf("unknown case %q (want pedestrian|oversized|cluttered|pulling)", name)
}

var _ sim.Driver = (*agent.LBC)(nil)
