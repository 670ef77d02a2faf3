package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
)

// smokeConfig builds iprism-serve and iprism-gateway from the enclosing
// repository and returns settings for a short run.
func smokeConfig(t *testing.T, seconds float64, traced bool) runConfig {
	t.Helper()
	if testing.Short() {
		t.Skip("smoke runs start the serving programs")
	}
	bin := t.TempDir()
	cmd := exec.Command("go", "build", "-o", bin+string(os.PathSeparator), "./cmd/iprism-serve", "./cmd/iprism-gateway")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build programs: %v\n%s", err, out)
	}
	dir := filepath.Join(t.TempDir(), "run")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	return runConfig{seed: 3, seconds: seconds, traced: traced, bin: bin, dir: dir, nproc: runtime.NumCPU()}
}

// checkOutcome asserts what every run must deliver: correct results, no
// failed operation and every end-to-end metric measured.
func checkOutcome(t *testing.T, o *outcome) {
	t.Helper()
	if o.mismatches != 0 || o.failed != 0 || o.attempted == 0 {
		t.Fatalf("%d mismatches, %d of %d failed: %v", o.mismatches, o.failed, o.attempted, o.lines)
	}
	for _, m := range e2eMetrics {
		if v := o.e2e(m.name); !(v > 0) {
			t.Errorf("%s = %v", m.name, v)
		}
	}
}

func TestSmokeSessionFleetTraced(t *testing.T) {
	cfg := smokeConfig(t, 10.2, true)
	measure, err := workloads["session_fleet"](cfg)
	if err != nil {
		t.Fatal(err)
	}
	o, err := measure(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkOutcome(t, o)
	if o.engine != "shared+warm" {
		t.Errorf("engine %q, want the default shared+warm", o.engine)
	}
	for _, name := range []string{"gateway.self_p50_ms", "client.transport_p50_ms", "sti.evaluate_p50_ms", "reach.expansion_p50_ms", "reach.warm_reuse_ratio.stopgo", "sti.alloc_kb_per_eval"} {
		if !(o.layers[name] > 0) {
			t.Errorf("%s = %v", name, o.layers[name])
		}
	}
	if r := o.layers["ledger.residual_max_ms"]; r > 1e-6 {
		t.Errorf("ledger residual %v ms", r)
	}
}

func TestSmokeCorpusBatch(t *testing.T) {
	for _, traced := range []bool{false, true} {
		cfg := smokeConfig(t, 1, traced)
		measure, err := workloads["corpus_batch"](cfg)
		if err != nil {
			t.Fatal(err)
		}
		o, err := measure(cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkOutcome(t, o)
		if traced {
			if !(o.layers["scene.decode_us_per_scene"] > 0) || !(o.layers["actor.predict_p50_us"] > 0) || o.layers["gateway.self_p50_ms"] != 0 {
				t.Errorf("traced layers %v", o.layers)
			}
		}
	}
}

func TestSmokeSMCTrain(t *testing.T) {
	cfg := smokeConfig(t, 0.1, true)
	o, err := runTrain(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkOutcome(t, o)
	if o.attempted != minTrainRuns*trainBudget {
		t.Errorf("attempted %d episodes, want %d", o.attempted, minTrainRuns*trainBudget)
	}
	for _, name := range []string{"agent.act_p50_us", "sim.steps_per_episode", "smc.sti_evals_per_episode", "train.cpu_utilization"} {
		if !(o.layers[name] > 0) {
			t.Errorf("%s = %v", name, o.layers[name])
		}
	}
}
