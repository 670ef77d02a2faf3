package iprism

import "repro/internal/telemetry"

// Observability facade. The instrumented hot paths (STI evaluation,
// reach-tube computation, the simulator step loop, SMC training) collect
// nothing until EnableTelemetry is called, so library users pay no
// overhead by default. See DESIGN.md "Observability" for the metric index
// and the journal schema.

// Telemetry types.
type (
	// TelemetrySnapshot is a JSON-serialisable copy of every metric
	// (counters, gauges, histogram percentiles) at one instant.
	TelemetrySnapshot = telemetry.Snapshot
	// TelemetryServer is a running expvar+pprof HTTP endpoint.
	TelemetryServer = telemetry.Server
	// TelemetryJournal is a JSONL event journal for episode/training events.
	TelemetryJournal = telemetry.Journal
)

// EnableTelemetry turns on metric collection globally.
func EnableTelemetry() { telemetry.Enable() }

// DisableTelemetry turns off metric collection globally.
func DisableTelemetry() { telemetry.Disable() }

// TelemetrySnapshotNow captures the current process-wide metric snapshot.
func TelemetrySnapshotNow() TelemetrySnapshot { return telemetry.Default().Snapshot() }

// ServeTelemetry starts an HTTP server on addr exposing /debug/vars
// (expvar, including the "iprism" metric snapshot), /debug/telemetry, and
// /debug/pprof/*. It does not implicitly call EnableTelemetry.
func ServeTelemetry(addr string) (*TelemetryServer, error) { return telemetry.Serve(addr) }

// OpenTelemetryJournal creates a JSONL journal at path and installs it as
// the process-wide event sink (SMC training episodes, suite progress). The
// file rotates to path+".1" at 64 MiB, like every journal the commands write.
// Close the returned journal to flush it; closing does not detach it —
// pass nil to SetTelemetryJournal for that.
func OpenTelemetryJournal(path string) (*TelemetryJournal, error) {
	j, err := telemetry.OpenJournal(path)
	if err != nil {
		return nil, err
	}
	telemetry.SetJournal(j)
	return j, nil
}

// SetTelemetryJournal installs (or, with nil, detaches) the process-wide
// event journal.
func SetTelemetryJournal(j *TelemetryJournal) { telemetry.SetJournal(j) }
