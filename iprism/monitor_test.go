package iprism

import (
	"testing"

	"repro/internal/agent"
	"repro/internal/sim"
)

// White-box trace tests (Reset/copy semantics/NaN handling/intervals) live
// with the implementation in internal/monitor; the tests here exercise the
// facade against a real closed-loop episode.

func TestRiskMonitorRecordsTrace(t *testing.T) {
	scns := GenerateScenarios(LeadSlowdown, 10, 5)
	scn := scns[0]
	w, err := scn.Build()
	if err != nil {
		t.Fatal(err)
	}
	mon, err := NewRiskMonitor(DefaultReachConfig(), 5)
	if err != nil {
		t.Fatal(err)
	}
	driver := mon.Wrap(agent.NewLBC(agent.DefaultLBCConfig()))
	out := sim.Run(w, driver, nil, sim.RunConfig{MaxSteps: scn.MaxSteps})

	samples := mon.Samples()
	if len(samples) == 0 {
		t.Fatal("no samples recorded")
	}
	wantSamples := (out.Steps + 4) / 5
	if len(samples) != wantSamples {
		t.Errorf("samples = %d, want %d (stride 5 over %d steps)", len(samples), wantSamples, out.Steps)
	}
	for _, s := range samples {
		if s.STI < 0 || s.STI > 1 {
			t.Fatalf("STI out of range: %v", s.STI)
		}
		if s.TTC < 0 {
			t.Fatalf("TTC negative: %v", s.TTC)
		}
	}
	// The lead-slowdown scenario has a lead in range: the most threatening
	// actor should eventually be identified.
	found := false
	for _, s := range samples {
		if s.MostThreatening == 1 {
			found = true
		}
	}
	if !found {
		t.Error("lead never identified as most threatening")
	}
	if mon.PeakSTI() <= 0 {
		t.Errorf("peak STI = %v, want > 0", mon.PeakSTI())
	}
}

// A stride below 1 floors to 1: every simulator step is recorded.
func TestRiskMonitorStrideFloor(t *testing.T) {
	scn := GenerateScenarios(LeadSlowdown, 10, 5)[0]
	for _, stride := range []int{0, -3} {
		w, err := scn.Build()
		if err != nil {
			t.Fatal(err)
		}
		mon, err := NewRiskMonitor(DefaultReachConfig(), stride)
		if err != nil {
			t.Fatal(err)
		}
		driver := mon.Wrap(agent.NewLBC(agent.DefaultLBCConfig()))
		out := sim.Run(w, driver, nil, sim.RunConfig{MaxSteps: 12})
		if out.Steps == 0 {
			t.Fatalf("stride %d: episode ran no steps", stride)
		}
		if got := len(mon.Samples()); got != out.Steps {
			t.Errorf("stride %d: samples = %d, want %d (every step)", stride, got, out.Steps)
		}
	}
}

func TestRiskMonitorTelemetrySnapshot(t *testing.T) {
	EnableTelemetry()
	t.Cleanup(DisableTelemetry)
	mon := &RiskMonitor{}
	snap := mon.Telemetry()
	if snap.Counters == nil || snap.Histograms == nil {
		t.Fatalf("snapshot maps not populated: %+v", snap)
	}
	// The instrumented metrics register at package init, so the snapshot
	// must already list the monitor's latency histogram.
	if _, ok := snap.Histograms["monitor.record.seconds"]; !ok {
		t.Error("monitor.record.seconds missing from snapshot")
	}
}

func TestRiskMonitorInvalidConfig(t *testing.T) {
	cfg := DefaultReachConfig()
	cfg.Horizon = -1
	if _, err := NewRiskMonitor(cfg, 1); err == nil {
		t.Error("invalid config accepted")
	}
}
