// Command iprism-bench runs the repository's standing benchmark workloads
// — STI evaluation (full and combined fast path) on the canonical
// three-actor scene, and LBC episodes over a ghost cut-in suite — with
// telemetry enabled, then writes the resulting latency distributions and
// counters as a BENCH_<date>.json snapshot. Committing these snapshots over
// time gives the repo a perf trajectory to regress against.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/actor"
	"repro/internal/agent"
	"repro/internal/geom"
	"repro/internal/reach"
	"repro/internal/roadmap"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/smc"
	"repro/internal/sti"
	"repro/internal/telemetry"
	"repro/internal/vehicle"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "iprism-bench:", err)
		os.Exit(1)
	}
}

// report is the BENCH_<date>.json schema. Kind tags the snapshot family
// ("bench") so cmd/iprism-benchdiff compares it only against other core
// bench snapshots, never against serve-kind loadgen snapshots.
type report struct {
	Kind      string `json:"kind"`
	Date      string `json:"date"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`

	Config struct {
		STIIters      int   `json:"sti_iters"`
		Episodes      int   `json:"episodes"`
		Seed          int64 `json:"seed"`
		TrainEpisodes int   `json:"train_episodes"`
		TrainWorkers  int   `json:"train_workers"`
	} `json:"config"`

	// Workloads holds wall-clock totals per workload; the per-operation
	// latency distributions live in Telemetry.Histograms (e.g.
	// "sti.evaluate.seconds", "sim.step.seconds").
	Workloads map[string]workload `json:"workloads"`
	Telemetry telemetry.Snapshot  `json:"telemetry"`
}

type workload struct {
	Iterations int     `json:"iterations"`
	Seconds    float64 `json:"seconds"`
	PerOp      float64 `json:"per_op_seconds"`
}

func run() error {
	var (
		stiIters   = flag.Int("sti-iters", 300, "STI evaluations per variant")
		episodes   = flag.Int("episodes", 20, "ghost cut-in episodes to simulate")
		seed       = flag.Int64("seed", 2024, "scenario generation seed")
		trainEps   = flag.Int("train-episodes", 12, "SMC training episodes for the smc_train workload")
		trainWork  = flag.Int("train-workers", 0, "episode workers for the smc_train workload (0 = GOMAXPROCS)")
		outDir     = flag.String("o", ".", "directory for the BENCH_<date>.json snapshot")
		telAddr    = flag.String("telemetry", "", "additionally serve expvar and pprof on this address while benchmarking")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the benchmark run to this file")
		memProfile = flag.String("memprofile", "", "write a post-run heap profile to this file")
	)
	flag.Parse()

	cleanup, err := telemetry.Setup(*telAddr, "")
	if err != nil {
		return err
	}
	defer cleanup()
	telemetry.Enable()
	telemetry.Default().Reset()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	var rep report
	rep.Kind = "bench"
	rep.Date = time.Now().Format(time.RFC3339)
	rep.GoVersion = runtime.Version()
	rep.GOOS, rep.GOARCH, rep.NumCPU = runtime.GOOS, runtime.GOARCH, runtime.NumCPU()
	rep.Config.STIIters = *stiIters
	rep.Config.Episodes = *episodes
	rep.Config.Seed = *seed
	rep.Workloads = make(map[string]workload)

	// Per-workload latency distributions: the process-wide
	// "sti.evaluate.seconds" histogram mixes every Evaluate call in the run,
	// so each workload also records its own distribution under
	// "bench.<workload>.seconds". cmd/iprism-benchdiff gates the dense
	// twelve-actor one — the workload the shared-expansion engine targets.
	var (
		histFull3    = telemetry.NewHistogram("bench.sti_evaluate_full.seconds", telemetry.LatencyBuckets())
		histFull6    = telemetry.NewHistogram("bench.sti_evaluate_full_6actor.seconds", telemetry.LatencyBuckets())
		histDense12  = telemetry.NewHistogram("bench.sti_evaluate_dense12.seconds", telemetry.LatencyBuckets())
		histDense64  = telemetry.NewHistogram("bench.sti_evaluate_dense64.seconds", telemetry.LatencyBuckets())
		histDense128 = telemetry.NewHistogram("bench.sti_evaluate_dense128.seconds", telemetry.LatencyBuckets())
	)

	// Workload 1: STI evaluation on the canonical three-actor straight-road
	// scene (mirrors BenchmarkSTIEvaluation / BenchmarkEvaluateCombined).
	eval, err := sti.NewEvaluator(reach.DefaultConfig())
	if err != nil {
		return err
	}
	road := roadmap.MustStraightRoad(2, 3.5, -100, 1000)
	actors := []*actor.Actor{
		actor.NewVehicle(1, vehicle.State{Pos: geom.V(14, 1.75), Speed: 3}),
		actor.NewVehicle(2, vehicle.State{Pos: geom.V(5, 5.25), Speed: 10}),
		actor.NewVehicle(3, vehicle.State{Pos: geom.V(-15, 1.75), Speed: 15}),
	}
	ego := vehicle.State{Pos: geom.V(0, 1.75), Speed: 10}

	start := time.Now()
	for i := 0; i < *stiIters; i++ {
		t := histFull3.Start()
		eval.Score(context.Background(), sti.Query{Map: road, Ego: ego, Actors: actors}, nil)
		t.Stop()
	}
	rep.Workloads["sti_evaluate_full"] = timed(*stiIters, time.Since(start))

	start = time.Now()
	for i := 0; i < *stiIters; i++ {
		eval.Combined(sti.Query{Map: road, Ego: ego, Actors: actors})
	}
	rep.Workloads["sti_evaluate_combined"] = timed(*stiIters, time.Since(start))

	// Workload 1b: the dense six-actor scene, the N+2-tube configuration the
	// per-actor counterfactual loop is slowest on (monitor-tick worst case).
	dense := []*actor.Actor{
		actor.NewVehicle(1, vehicle.State{Pos: geom.V(14, 1.75), Speed: 3}),
		actor.NewVehicle(2, vehicle.State{Pos: geom.V(5, 5.25), Speed: 10}),
		actor.NewVehicle(3, vehicle.State{Pos: geom.V(-15, 1.75), Speed: 15}),
		actor.NewVehicle(4, vehicle.State{Pos: geom.V(28, 5.25), Speed: 8}),
		actor.NewVehicle(5, vehicle.State{Pos: geom.V(-8, 5.25), Speed: 12}),
		actor.NewVehicle(6, vehicle.State{Pos: geom.V(40, 1.75), Speed: 5}),
	}
	start = time.Now()
	for i := 0; i < *stiIters; i++ {
		t := histFull6.Start()
		eval.Score(context.Background(), sti.Query{Map: road, Ego: ego, Actors: dense}, nil)
		t.Stop()
	}
	rep.Workloads["sti_evaluate_full_6actor"] = timed(*stiIters, time.Since(start))

	// Workload 1c: the dense twelve-actor scene (mirrors
	// BenchmarkEvaluateDense12*): a fast ego rolling up on two ranks of slow
	// traffic across three lanes with fast vehicles closing from behind, so
	// ~6 actors genuinely carve the reach-tube. This is the workload class
	// where a per-actor evaluation would pay a near-full-size
	// counterfactual tube per blocker; the shared expansion covers the
	// union once.
	denseRoad := roadmap.MustStraightRoad(3, 3.5, -100, 1000)
	denseEgo := vehicle.State{Pos: geom.V(0, 5.25), Speed: 12}
	dense12 := []*actor.Actor{
		actor.NewVehicle(1, vehicle.State{Pos: geom.V(30, 1.75), Speed: 6}),
		actor.NewVehicle(2, vehicle.State{Pos: geom.V(36, 5.25), Speed: 6}),
		actor.NewVehicle(3, vehicle.State{Pos: geom.V(33, 8.75), Speed: 6}),
		actor.NewVehicle(4, vehicle.State{Pos: geom.V(40, 1.75), Speed: 6}),
		actor.NewVehicle(5, vehicle.State{Pos: geom.V(46, 5.25), Speed: 6}),
		actor.NewVehicle(6, vehicle.State{Pos: geom.V(43, 8.75), Speed: 6}),
		actor.NewVehicle(7, vehicle.State{Pos: geom.V(-14, 5.25), Speed: 15}),
		actor.NewVehicle(8, vehicle.State{Pos: geom.V(-18, 1.75), Speed: 16}),
		actor.NewVehicle(9, vehicle.State{Pos: geom.V(-16, 8.75), Speed: 17}),
		actor.NewVehicle(10, vehicle.State{Pos: geom.V(55, 5.25), Speed: 5}),
		actor.NewVehicle(11, vehicle.State{Pos: geom.V(52, 1.75), Speed: 5}),
		actor.NewVehicle(12, vehicle.State{Pos: geom.V(53, 8.75), Speed: 5}),
	}
	dense12Iters := *stiIters / 3
	if dense12Iters < 1 {
		dense12Iters = 1
	}
	start = time.Now()
	for i := 0; i < dense12Iters; i++ {
		t := histDense12.Start()
		eval.Score(context.Background(), sti.Query{Map: denseRoad, Ego: denseEgo, Actors: dense12}, nil)
		t.Stop()
	}
	rep.Workloads["sti_evaluate_dense12"] = timed(dense12Iters, time.Since(start))

	// Workload 1d: crowd-scale urban-intersection crush scenes
	// (scenario.UrbanCrush). dense64 crosses the old single-word mask
	// boundary by one actor — the scene class whose critical lead blocker
	// used to land on the spillover fallback path — and dense128 doubles
	// the crowd so the segmented expansion carries three mask words.
	for _, wl := range []struct {
		name string
		n    int
		div  int
		hist *telemetry.Histogram
	}{
		// Divisors keep ≥100 samples on the benchdiff-gated dense64 histogram:
		// with a few dozen samples the p95 interpolates off the top one or two
		// observations inside a wide latency bucket, and run-to-run tail noise
		// alone can swing it past the gate tolerance.
		{"sti_evaluate_dense64", 64, 3, histDense64},
		{"sti_evaluate_dense128", 128, 6, histDense128},
	} {
		crushRoad, crushEgo, crush := scenario.UrbanCrush(wl.n)
		iters := *stiIters / wl.div
		if iters < 1 {
			iters = 1
		}
		start = time.Now()
		for i := 0; i < iters; i++ {
			t := wl.hist.Start()
			eval.Score(context.Background(), sti.Query{Map: crushRoad, Ego: crushEgo, Actors: crush}, nil)
			t.Stop()
		}
		rep.Workloads[wl.name] = timed(iters, time.Since(start))
	}

	// Workload 1e: the canonical stop-and-go session replay (mirrors
	// BenchmarkEvaluateSession/stopgo12): one evaluator scores the recorded
	// 12-actor trace tick by tick holding a session WarmState, then scores
	// the identical stream cold with a nil state. The warm per-tick
	// distribution is the gated serving-path metric; the cold one rides
	// along so every snapshot carries its own A/B.
	var (
		histSession12     = telemetry.NewHistogram("bench.sti_evaluate_session12.seconds", telemetry.LatencyBuckets())
		histSession12Cold = telemetry.NewHistogram("bench.sti_evaluate_session12_cold.seconds", telemetry.LatencyBuckets())
	)
	sessCfg := reach.DefaultConfig()
	sessRoad, sessTrace := scenario.StopAndGoSession(12, 40)
	sessTrajs := make([][]actor.Trajectory, len(sessTrace))
	for t, tick := range sessTrace {
		sessTrajs[t] = actor.PredictAll(tick.Actors, sessCfg.NumSlices(), sessCfg.SliceDt)
	}
	sessIters := *stiIters / 3
	if sessIters < 1 {
		sessIters = 1
	}
	for _, wl := range []struct {
		name string
		warm bool
		hist *telemetry.Histogram
	}{
		{"sti_evaluate_session12", true, histSession12},
		{"sti_evaluate_session12_cold", false, histSession12Cold},
	} {
		sessEval, err := sti.NewEvaluator(sessCfg)
		if err != nil {
			return err
		}
		var ws *sti.WarmState
		if wl.warm {
			ws = sti.NewWarmState()
		}
		start = time.Now()
		for i := 0; i < sessIters; i++ {
			tick := sessTrace[i%len(sessTrace)]
			t := wl.hist.Start()
			sessEval.Score(context.Background(), sti.Query{Map: sessRoad, Ego: tick.Ego, Actors: tick.Actors, Trajs: sessTrajs[i%len(sessTrace)]}, ws)
			t.Stop()
		}
		rep.Workloads[wl.name] = timed(sessIters, time.Since(start))
	}

	// Workload 2: full LBC episodes over a ghost cut-in suite, populating
	// the sim-step latency distribution and the reach/collision counters.
	scns := scenario.GenerateValid(scenario.GhostCutIn, *episodes, *seed)
	steps := 0
	start = time.Now()
	for _, s := range scns {
		w, err := s.Build()
		if err != nil {
			return err
		}
		out := sim.Run(w, agent.NewLBC(agent.DefaultLBCConfig()), nil, sim.RunConfig{MaxSteps: s.MaxSteps})
		steps += out.Steps
	}
	rep.Workloads["sim_episodes"] = timed(steps, time.Since(start))

	// Workload 3: SMC training as a standing workload — a fixed-seed,
	// fixed-budget run over two ghost cut-in scenarios on the shared-
	// expansion evaluator. The gated numbers are the episodes/sec gauge
	// (higher is better) and the per-episode wall p95 ("smc.episode.seconds"
	// — this process trains nowhere else, so the process-wide histogram is
	// exactly this workload's distribution).
	trainWorkers := *trainWork
	if trainWorkers <= 0 {
		trainWorkers = runtime.GOMAXPROCS(0)
	}
	rep.Config.TrainEpisodes = *trainEps
	rep.Config.TrainWorkers = trainWorkers
	gaugeEpisodesPerSec := telemetry.NewGauge("bench.smc_train.episodes_per_sec")
	trainScns := scenario.Generate(scenario.GhostCutIn, 2, 7)
	tcfg := smc.DefaultConfig()
	tcfg.DDQN.Seed = 11
	tcfg.DDQN.EpsDecaySteps = *trainEps * 100
	tcfg.EpisodeWorkers = trainWorkers
	start = time.Now()
	_, tres, err := smc.Train(trainScns, func() sim.Driver { return agent.NewLBC(agent.DefaultLBCConfig()) }, tcfg, *trainEps)
	if err != nil {
		return err
	}
	trainDur := time.Since(start)
	rep.Workloads["smc_train"] = timed(tres.Episodes, trainDur)
	if s := trainDur.Seconds(); s > 0 {
		gaugeEpisodesPerSec.Set(float64(tres.Episodes) / s)
	}

	rep.Telemetry = telemetry.Default().Snapshot()

	// Timestamped to the second so several snapshots per day coexist and
	// lexicographic filename order equals chronological order (the contract
	// cmd/iprism-benchdiff relies on).
	path := filepath.Join(*outDir, "BENCH_"+time.Now().UTC().Format("2006-01-02T150405Z")+".json")
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return err
	}

	for _, name := range []string{
		"sti.evaluate.seconds", "sti.evaluate_combined.seconds", "sim.step.seconds",
		"bench.sti_evaluate_full.seconds", "bench.sti_evaluate_full_6actor.seconds",
		"bench.sti_evaluate_dense12.seconds", "bench.sti_evaluate_dense64.seconds",
		"bench.sti_evaluate_dense128.seconds", "bench.sti_evaluate_session12.seconds",
		"bench.sti_evaluate_session12_cold.seconds", "smc.episode.seconds",
	} {
		h := rep.Telemetry.Histograms[name]
		fmt.Printf("%-40s n=%-6d p50 %s  p95 %s  p99 %s\n",
			name, h.Count, fmtSec(h.P50), fmtSec(h.P95), fmtSec(h.P99))
	}
	fmt.Printf("%-40s %.2f ep/s (%d workers, %d episodes)\n",
		"bench.smc_train.episodes_per_sec", rep.Telemetry.Gauges["bench.smc_train.episodes_per_sec"], trainWorkers, tres.Episodes)
	fmt.Printf("wrote %s\n", path)

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC() // settle live-heap accounting before the snapshot
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}
	return nil
}

func timed(iters int, d time.Duration) workload {
	w := workload{Iterations: iters, Seconds: d.Seconds()}
	if iters > 0 {
		w.PerOp = d.Seconds() / float64(iters)
	}
	return w
}

func fmtSec(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond).String()
}
