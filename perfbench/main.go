// Command perfbench is the repository's benchmark of record. It runs one
// workload against the shipped programs and prints, as its last line, one
// JSON object with the run's correctness, operation counts and metrics:
//
//	bash perfbench/run.sh --workload session_fleet --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run; with
// --trace 1 it measures an untraced half and a traced half of the same
// inputs and reports the per-layer metrics and the tracing overhead. See
// README.md in this directory.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// setupRepeats is how many times a serving run sets the programs up;
// setup_s is the median.
const setupRepeats = 15

// runConfig is one measurement's settings.
type runConfig struct {
	seed    int64
	seconds float64
	traced  bool
	bin     string // directory holding iprism-serve and iprism-gateway
	dir     string // run directory: addr-files, journals, logs
	nproc   int
}

// workloads maps a workload name to its preparation: generating the
// seed's inputs and references, outside any timing. The returned function
// measures once with the given settings.
var workloads = map[string]func(cfg runConfig) (func(runConfig) (*outcome, error), error){
	"session_fleet": func(cfg runConfig) (func(runConfig) (*outcome, error), error) {
		in, err := makeFleetInputs(cfg.seed, cfg.seconds, cfg.nproc)
		if err != nil {
			return nil, err
		}
		return func(c runConfig) (*outcome, error) { return runFleet(c, in) }, nil
	},
	"corpus_batch": func(cfg runConfig) (func(runConfig) (*outcome, error), error) {
		in, err := makeCorpusInputs(cfg.seed, cfg.nproc)
		if err != nil {
			return nil, err
		}
		return func(c runConfig) (*outcome, error) { return runCorpus(c, in) }, nil
	},
	"smc_train": func(runConfig) (func(runConfig) (*outcome, error), error) {
		return runTrain, nil
	},
}

type unitName struct{ name, unit string }

// e2eMetrics are reported by every workload with --trace 0. An operation
// is a session tick, a scene, or an agent decision in training; latency is
// per tick (timed from its due time), per batch request, or per decision.
var e2eMetrics = []unitName{
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"goodput_per_s", "1/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
}

// layerMetrics are reported by every workload with --trace 1; a layer a
// workload does not exercise reads 0.
var layerMetrics = []unitName{
	{"client.lateness_p99_ms", "ms"},
	{"client.tick_p99_ms", "ms"},
	{"client.transport_p50_ms", "ms"},
	{"gateway.self_p50_ms", "ms"},
	{"gateway.cpu_ms_per_tick", "ms"},
	{"gateway.retries", "count"},
	{"gateway.hedges", "count"},
	{"server.cpu_ms_per_op", "ms"},
	{"server.queue_wait_p50_ms", "ms"},
	{"server.queue_wait_p99_ms", "ms"},
	{"server.handler_self_p50_ms", "ms"},
	{"server.batch_size_mean", "count"},
	{"server.rejected_saturated", "count"},
	{"server.timeouts", "count"},
	{"scene.decode_us_per_scene", "us"},
	{"scene.validate_us_per_scene", "us"},
	{"scene.materialize_us_per_scene", "us"},
	{"scene.bytes_per_scene", "bytes"},
	{"actor.predict_p50_us", "us"},
	{"sti.evaluate_p50_ms", "ms"},
	{"sti.empty_tube_p50_ms", "ms"},
	{"sti.empty_cache_hit_ratio", "ratio"},
	{"sti.warm_hit_ratio", "ratio"},
	{"sti.elided_per_eval", "count"},
	{"sti.alloc_kb_per_eval", "KiB"},
	{"reach.expansion_p50_ms", "ms"},
	{"reach.expansion_p99_ms", "ms"},
	{"reach.states_expanded_per_eval", "count"},
	{"reach.propagations_per_eval", "count"},
	{"reach.pruned_ratio", "ratio"},
	{"reach.warm_reuse_ratio.stopgo", "ratio"},
	{"reach.warm_reuse_ratio.ring", "ratio"},
	{"reach.warm_reuse_ratio.crush", "ratio"},
	{"reach.worlds_mean", "count"},
	{"reach.mask_words_mean", "count"},
	{"train.cpu_utilization", "ratio"},
	{"sim.step_p50_us", "us"},
	{"sim.steps_per_episode", "count"},
	{"agent.act_p50_us", "us"},
	{"smc.episode_p50_ms", "ms"},
	{"smc.sti_evals_per_episode", "count"},
	{"smc.sti_evaluate_p50_ms", "ms"},
	{"smc.replay_queue_depth_mean", "count"},
	{"ledger.residual_max_ms", "ms"},
	{"trace_overhead_pct", "%"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// provenance identifies what a result was measured on.
type provenance struct {
	Revision  string  `json:"revision"`
	CPUModel  string  `json:"cpu_model"`
	NProc     int     `json:"nproc"`
	GoVersion string  `json:"go_version"`
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Trace     int     `json:"trace"`
	Engine    string  `json:"engine"`
}

func main() {
	code, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func run() (int, error) {
	var (
		name    = flag.String("workload", "", "workload to run: corpus_batch, session_fleet or smc_train")
		seed    = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 20, "measured seconds (split between an untraced and a traced half with -trace 1)")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
		bin     = flag.String("bin", "", "directory holding the iprism-serve and iprism-gateway binaries")
		workdir = flag.String("workdir", ".bench_build", "directory for run files (addr-files, journals, logs)")
	)
	flag.Parse()
	prepare, ok := workloads[*name]
	if !ok {
		return 2, fmt.Errorf("unknown workload %q", *name)
	}
	if *trace != 0 && *trace != 1 {
		return 2, fmt.Errorf("-trace must be 0 or 1")
	}
	if *seconds <= 0 {
		return 2, fmt.Errorf("-seconds must be positive")
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		return 2, err
	}
	dir, err := os.MkdirTemp(*workdir, "run-"+*name+"-")
	if err != nil {
		return 2, err
	}
	defer os.RemoveAll(dir)
	cfg := runConfig{seed: *seed, seconds: *seconds, bin: *bin, dir: dir, nproc: runtime.NumCPU()}
	measure, err := prepare(cfg)
	if err != nil {
		return 2, fmt.Errorf("prepare %s: %w", *name, err)
	}

	res := result{Metrics: map[string]metric{}}
	var o *outcome
	if *trace == 0 {
		if o, err = measureScaled(measure, cfg); err != nil {
			return 2, err
		}
		res.Attempted, res.Failed = o.attempted, o.failed
		for _, m := range e2eMetrics {
			v := o.e2e(m.name)
			if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return 2, fmt.Errorf("%s measured %v", m.name, v)
			}
			res.Metrics[m.name] = metric{v, m.unit}
		}
		report(os.Stdout, o)
	} else {
		// The two halves get their own run directories so no addr-file or
		// journal of the first is mistaken for the second's.
		half := cfg
		half.seconds = cfg.seconds / 2
		half.dir = filepath.Join(dir, "untraced")
		plain, err := measureIn(measure, half)
		if err != nil {
			return 2, err
		}
		half.traced = true
		half.dir = filepath.Join(dir, "traced")
		if o, err = measureIn(measure, half); err != nil {
			return 2, err
		}
		report(os.Stdout, o)
		for _, m := range e2eMetrics {
			fmt.Printf("trace overhead %s: untraced %.6g, traced %.6g (%+.2f%%)\n", m.name, plain.e2e(m.name), o.e2e(m.name), pct(o.e2e(m.name), plain.e2e(m.name)))
		}
		o.layers["trace_overhead_pct"] = pct(o.latP50, plain.latP50)
		o.attempted += plain.attempted
		o.failed += plain.failed
		o.mismatches += plain.mismatches
		res.Attempted, res.Failed = o.attempted, o.failed
		for _, m := range layerMetrics {
			v := o.layers[m.name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			res.Metrics[m.name] = metric{v, m.unit}
		}
	}
	res.Correct = o.mismatches == 0

	prov := provenance{
		Revision:  revision(),
		CPUModel:  cpuModel(),
		NProc:     cfg.nproc,
		GoVersion: runtime.Version(),
		Workload:  *name,
		Seed:      *seed,
		Seconds:   *seconds,
		Trace:     *trace,
		Engine:    o.engine,
	}
	pb, _ := json.Marshal(prov) // plain struct of strings and numbers
	fmt.Printf("provenance %s\n", pb)
	out, err := json.Marshal(res)
	if err != nil {
		return 2, err
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1, fmt.Errorf("%d correctness mismatches", o.mismatches)
	}
	return 0, nil
}

func measureIn(measure func(runConfig) (*outcome, error), cfg runConfig) (*outcome, error) {
	if err := os.Mkdir(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	return measureScaled(measure, cfg)
}

// measureScaled measures once with the speed probe running alongside and
// scales the outcome's timings to a reference machine (see speed.go).
// Every timing is scaled by the probe's speed factor, refChunkMs over its
// median chunk time. Wall-clock timings are scaled, besides, by the share
// of the CPU time the machine wanted that the host let it have: with a
// share s stolen, work that needs t seconds of CPU takes t/(1-s) seconds.
// A throughput the machine's speed bounds is scaled by the inverse.
func measureScaled(measure func(runConfig) (*outcome, error), cfg runConfig) (*outcome, error) {
	busy0, steal0, err := machineCPU()
	if err != nil {
		return nil, err
	}
	probe := startSpeedProbe()
	o, err := measure(cfg)
	chunks := probe.stop()
	if err != nil {
		return nil, err
	}
	busy1, steal1, err := machineCPU()
	if err != nil {
		return nil, err
	}
	if len(chunks) < 10 {
		return nil, fmt.Errorf("speed probe ran %d chunks; measure longer", len(chunks))
	}
	chunk := median(chunks)
	speed := refChunkMs / chunk
	stolen := ratio(steal1-steal0, busy1-busy0+steal1-steal0)
	latStolen := stolen
	rawP50, rawTail := o.latP50, o.latTail
	if p50, tl, share, ok := quietLatency(o.lat, o.latAt, o.tailPct, probe.stolen); ok {
		o.latP50, o.latTail, latStolen = p50, tl, share
	}
	o.lines = append(o.lines,
		fmt.Sprintf("speed probe: %d chunks, median %.4f ms CPU (p25 %.4f, p75 %.4f), reference %.4f: CPU timings scaled by %.4f",
			len(chunks), chunk, percentile(chunks, 25), percentile(chunks, 75), refChunkMs, speed),
		fmt.Sprintf("host steal: %.2f%% of the CPU time the machine wanted (%.2f%% in the latency windows kept): wall-clock timings scaled by %.4f (latencies %.4f)",
			100*stolen, 100*latStolen, speed*(1-stolen), speed*(1-latStolen)),
		fmt.Sprintf("unscaled: latency_p50_ms %.6g, latency_tail_ms %.6g, cpu_ms_per_op %.6g, goodput_per_s %.6g, setup_s %.6g (over all windows: latency p50 %.6g, tail %.6g)",
			o.latP50, o.latTail, o.cpuPerOp, o.goodput, o.setup, rawP50, rawTail))
	o.scale(speed, stolen, latStolen)
	return o, nil
}

// scale applies a speed factor and stolen shares of CPU time, over the
// whole measurement and over the latency windows kept, to the end-to-end
// timings, as measureScaled describes.
func (o *outcome) scale(speed, stolen, latStolen float64) {
	wall := speed * (1 - stolen)
	o.latP50 *= speed * (1 - latStolen)
	o.latTail *= speed * (1 - latStolen)
	o.cpuPerOp *= speed
	o.setup *= wall
	if !o.offeredLoad {
		o.goodput /= wall
	}
}

// e2e returns the outcome's value for an end-to-end metric name.
func (o *outcome) e2e(name string) float64 {
	switch name {
	case "latency_p50_ms":
		return o.latP50
	case "latency_tail_ms":
		return o.latTail
	case "cpu_ms_per_op":
		return o.cpuPerOp
	case "goodput_per_s":
		return o.goodput
	case "setup_s":
		return o.setup
	case "peak_rss_mb":
		return o.rss
	}
	return math.NaN()
}

func pct(v, base float64) float64 { return ratio(v-base, base) * 100 }

// report prints the human-readable part of a result: the workload's own
// metric names, operation counts and any extra lines.
func report(w *os.File, o *outcome) {
	for _, l := range o.lines {
		fmt.Fprintln(w, l)
	}
	fmt.Fprintf(w, "operations: %d attempted, %d failed; latency over %d samples: p50 %.4f ms, p%g %.4f ms\n",
		o.attempted, o.failed, o.samples, o.latP50, o.tailPct, o.latTail)
	for _, n := range o.named {
		fmt.Fprintf(w, "%s %.6g %s\n", n.name, n.value, n.unit)
	}
	fmt.Fprintf(w, "setup_s %.6g s\npeak_rss_mb %.6g MiB\n", o.setup, o.rss)
}

// revision names the source measured: the git commit when the working
// directory is a repository's root, otherwise a digest of the Go sources.
func revision() string {
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	var files []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the digest
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", f, len(b))
		h.Write(b)
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
