package iprism

import (
	"context"

	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/vehicle"
)

// RiskSample is one instant of online risk assessment.
type RiskSample = monitor.Sample

// RiskMonitor wraps any Driver and records STI / TTC / Dist. CIPA while
// the ADS drives — the online risk-assessment use case of §V-A/V-B. The
// monitor is passive: it never modifies the ADS control. It embeds the
// recorder of internal/monitor (Samples, PeakSTI, RiskyIntervals, Reset,
// ...), which the scoring service's session API shares, and adds the
// simulator adapter, Wrap, with its sampling stride. It is safe for
// concurrent use.
type RiskMonitor struct {
	*monitor.Monitor
	stride int
}

// NewRiskMonitor builds a monitor that samples every stride simulator
// steps (minimum 1).
func NewRiskMonitor(cfg ReachConfig, stride int) (*RiskMonitor, error) {
	m, err := monitor.New(cfg)
	if err != nil {
		return nil, err
	}
	return &RiskMonitor{Monitor: m, stride: max(stride, 1)}, nil
}

// Wrap returns a Driver that delegates to inner while recording risk on
// every stride-th step.
func (m *RiskMonitor) Wrap(inner Driver) Driver {
	return &monitoredDriver{inner: inner, monitor: m}
}

type monitoredDriver struct {
	inner   Driver
	monitor *RiskMonitor
	steps   int
}

func (d *monitoredDriver) Reset() {
	d.inner.Reset()
	d.steps = 0
}

func (d *monitoredDriver) Act(obs sim.Observation) vehicle.Control {
	if d.steps%d.monitor.stride == 0 {
		d.monitor.Observe(context.Background(), obs.Map, obs.Ego, obs.EgoParams, obs.Actors, nil, obs.Time)
	}
	d.steps++
	return d.inner.Act(obs)
}
