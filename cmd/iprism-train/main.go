// Command iprism-train trains a Safety-hazard Mitigation Controller for one
// scenario typology (selecting the highest-average-STI accident scenario of
// a generated suite, as in §IV-B1, by the rule iprism-report's Table III
// uses) and saves the trained controller as JSON for later deployment.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"

	"repro/internal/agent"
	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/smc"
	"repro/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "iprism-train:", err)
		os.Exit(1)
	}
}

var typologyNames = map[string]scenario.Typology{
	"ghost-cut-in":  scenario.GhostCutIn,
	"lead-cut-in":   scenario.LeadCutIn,
	"lead-slowdown": scenario.LeadSlowdown,
	"rear-end":      scenario.RearEnd,
}

// run trains and saves a controller, printing its progress to stdout. Its
// error is the first of the training's and the journal close's failures.
func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("iprism-train", flag.ExitOnError)
	var (
		typology  = fs.String("typology", "ghost-cut-in", "one of: "+strings.Join(names(), ", "))
		n         = fs.Int("n", 60, "suite size used to select the training scenario")
		episodes  = fs.Int("episodes", 100, "training episodes (paper: 100)")
		seed      = fs.Int64("seed", 2024, "generation and training seed")
		out       = fs.String("o", "smc.json", "output path for the trained controller")
		noSTI     = fs.Bool("no-sti", false, "train the w/o-STI reward ablation")
		telAddr   = fs.String("telemetry", "", "serve expvar and pprof on this address (e.g. localhost:6060)")
		journal   = fs.String("journal", "", "write a JSONL telemetry journal (per-episode reward/epsilon/loss) to this path")
		epWorkers = fs.Int("episode-workers", 1, "parallel episode workers (1 = historical serial trainer; N>1 is run-to-run deterministic)")
		ckPath    = fs.String("checkpoint", "", "write atomic training checkpoints to this path")
		ckEvery   = fs.Int("checkpoint-every", 25, "episodes between checkpoints")
		resume    = fs.Bool("resume", false, "resume from -checkpoint if it exists (continues the epsilon/episode schedule)")
	)
	fs.Parse(args)

	ty, ok := typologyNames[*typology]
	if !ok {
		return fmt.Errorf("unknown typology %q (want one of %s)", *typology, strings.Join(names(), ", "))
	}
	telCleanup, err := telemetry.Setup(*telAddr, *journal)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := telCleanup(); err == nil && cerr != nil {
			err = fmt.Errorf("telemetry: %w", cerr)
		}
	}()

	fmt.Fprintf(stdout, "selecting the training scenario from %d %s instances...\n", *n, ty)
	opt := experiments.DefaultOptions()
	suite, err := experiments.NewSuite(ty, scenario.GenerateValid(ty, *n, *seed), opt.Workers)
	if err != nil {
		return err
	}
	crashes := suite.Accidents()
	if len(crashes) == 0 {
		return fmt.Errorf("no baseline accidents in %d instances; increase -n", *n)
	}
	ev, err := experiments.Trace([]experiments.Suite{suite}, opt)
	if err != nil {
		return err
	}
	idx, err := ev.TrainingScenario(ty)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "baseline crashed in %d/%d instances; training on scenario #%d for %d episodes...\n",
		len(crashes), len(suite.Scenarios), suite.Scenarios[idx].ID, *episodes)
	lbc := func() sim.Driver { return agent.NewLBC(agent.DefaultLBCConfig()) }

	cfg := smc.DefaultConfig()
	cfg.UseSTI = !*noSTI
	cfg.DDQN.Seed = *seed
	cfg.DDQN.EpsDecaySteps = *episodes * 100
	cfg.EpisodeWorkers = *epWorkers

	// SIGINT/SIGTERM stop training at the next episode boundary; the final
	// checkpoint (when -checkpoint is set) carries the exact state to
	// continue from with -resume.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// After the first signal cancels ctx, restore default handling so a
	// second signal kills a run stuck mid-episode.
	context.AfterFunc(ctx, stop)
	trainOpts := smc.TrainOptions{
		CheckpointPath:  *ckPath,
		CheckpointEvery: *ckEvery,
		Resume:          *resume,
	}
	if *resume && *ckPath == "" {
		return fmt.Errorf("-resume requires -checkpoint")
	}
	ctrl, stats, err := smc.TrainContext(ctx, suite.Scenarios[idx:idx+1], lbc, cfg, *episodes, trainOpts)
	if err != nil {
		return err
	}
	if stats.StartEpisode > 0 {
		fmt.Fprintf(stdout, "resumed from episode %d\n", stats.StartEpisode)
	}
	if stats.Interrupted {
		fmt.Fprintf(stdout, "interrupted after %d episodes", stats.Episodes)
		if *ckPath != "" {
			fmt.Fprintf(stdout, "; checkpoint saved to %s — rerun with -resume to continue", *ckPath)
		}
		fmt.Fprintln(stdout)
	} else {
		fmt.Fprintf(stdout, "trained: %d episodes, %d training collisions, final epsilon %.2f\n",
			stats.Episodes, stats.Collisions, stats.FinalEpsilon)
	}

	if err := ctrl.Save(*out); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "saved controller to %s\n", *out)
	if stats.Interrupted {
		return nil
	}

	// Quick self-evaluation on the crash set.
	saved := 0
	for _, i := range crashes {
		s := suite.Scenarios[i]
		w, err := s.Build()
		if err != nil {
			return err
		}
		if out := sim.Run(w, lbc(), ctrl.CloneForRun(), sim.RunConfig{MaxSteps: s.MaxSteps}); !out.Collision {
			saved++
		}
	}
	fmt.Fprintf(stdout, "mitigation check: %d/%d previously fatal scenarios now collision-free\n", saved, len(crashes))
	return nil
}

func names() []string {
	out := make([]string, 0, len(typologyNames))
	for n := range typologyNames {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
