package gateway

import (
	"context"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// backend is one iprism-serve process behind the gateway: its address, its
// live health verdict, and its per-backend telemetry. Health transitions
// are driven by the prober goroutine (periodic /healthz) and by passive
// evidence from proxying (connection errors count as probe failures, so a
// SIGKILL'd backend is ejected within failThreshold requests instead of
// waiting out a probe period).
type backend struct {
	idx  int
	addr string // host:port
	base string // http://host:port

	healthy atomic.Bool
	// consecFail counts consecutive failures (probe or passive); reaching
	// failThreshold ejects. consecOK counts consecutive probe successes
	// while ejected; reaching readmitThreshold re-admits.
	consecFail atomic.Int64
	consecOK   atomic.Int64
	inflight   atomic.Int64

	// Per-backend counters, named by stable pool index so the fleet's
	// /metrics stays lint-clean regardless of address syntax.
	telRequests  *telemetry.Counter
	telErrors    *telemetry.Counter
	telHedges    *telemetry.Counter
	telEjections *telemetry.Counter
}

func newBackend(idx int, addr string) *backend {
	b := &backend{
		idx:          idx,
		addr:         addr,
		base:         "http://" + addr,
		telRequests:  telemetry.NewCounter("gateway.backend." + strconv.Itoa(idx) + ".requests"),
		telErrors:    telemetry.NewCounter("gateway.backend." + strconv.Itoa(idx) + ".errors"),
		telHedges:    telemetry.NewCounter("gateway.backend." + strconv.Itoa(idx) + ".hedges"),
		telEjections: telemetry.NewCounter("gateway.backend." + strconv.Itoa(idx) + ".ejections"),
	}
	// Optimistic start: the first failed probe or request corrects it; the
	// alternative (pessimistic start) blackholes the fleet until the first
	// probe round even when every backend is fine.
	b.healthy.Store(true)
	return b
}

// noteFailure records failed contact (probe or passive). Returns true when
// this failure ejected the backend.
func (b *backend) noteFailure(threshold int) bool {
	b.consecOK.Store(0)
	if b.consecFail.Add(1) >= int64(threshold) && b.healthy.CompareAndSwap(true, false) {
		b.telEjections.Inc()
		telEjections.Inc()
		return true
	}
	return false
}

// noteProbeSuccess records a successful health probe. Returns true when it
// re-admitted an ejected backend.
func (b *backend) noteProbeSuccess(readmit int) bool {
	b.consecFail.Store(0)
	if b.healthy.Load() {
		b.consecOK.Store(0)
		return false
	}
	if b.consecOK.Add(1) >= int64(readmit) {
		b.consecOK.Store(0)
		if b.healthy.CompareAndSwap(false, true) {
			telReadmissions.Inc()
			return true
		}
	}
	return false
}

// probe runs the health-check loop for one backend until quit closes.
// Healthy backends are probed every ProbeInterval; ejected ones back off
// exponentially up to 8×ProbeInterval so a dead backend is not hammered,
// then are re-admitted after readmitThreshold consecutive good probes.
func (g *Gateway) probe(b *backend) {
	defer g.wg.Done()
	interval := g.cfg.ProbeInterval
	timer := time.NewTimer(interval)
	defer timer.Stop()
	for {
		select {
		case <-g.quit:
			return
		case <-timer.C:
		}
		ok := g.probeOnce(b)
		wasHealthy := b.healthy.Load()
		if ok {
			if b.noteProbeSuccess(readmitThreshold) {
				g.logf("gateway: backend %s re-admitted", b.addr)
			}
			interval = g.cfg.ProbeInterval
		} else {
			if b.noteFailure(g.cfg.failThreshold) {
				g.logf("gateway: backend %s ejected (probe)", b.addr)
			}
			if !wasHealthy {
				// Still down: back off.
				interval = min(interval*2, 8*g.cfg.ProbeInterval)
			} else {
				interval = g.cfg.ProbeInterval
			}
		}
		g.updateHealthGauge()
		timer.Reset(interval)
	}
}

func (g *Gateway) probeOnce(b *backend) bool {
	ctx, cancel := context.WithTimeout(context.Background(), min(g.cfg.ProbeInterval, probeTimeoutMax))
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.base+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := g.probeClient.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	drain(resp)
	return resp.StatusCode == http.StatusOK
}

// healthyCount and updateHealthGauge keep the fleet-health gauge current.
func (g *Gateway) healthyCount() int {
	n := 0
	for _, b := range g.backends {
		if b.healthy.Load() {
			n++
		}
	}
	return n
}

func (g *Gateway) updateHealthGauge() {
	telHealthyGauge.Set(float64(g.healthyCount()))
}

// BackendStatus is one backend's row in /debug/backends.
type BackendStatus struct {
	Index     int    `json:"index"`
	Addr      string `json:"addr"`
	Healthy   bool   `json:"healthy"`
	Inflight  int64  `json:"inflight"`
	Requests  int64  `json:"requests"`
	Errors    int64  `json:"errors"`
	Hedges    int64  `json:"hedges"`
	Ejections int64  `json:"ejections"`
}

func (b *backend) status() BackendStatus {
	return BackendStatus{
		Index:     b.idx,
		Addr:      b.addr,
		Healthy:   b.healthy.Load(),
		Inflight:  b.inflight.Load(),
		Requests:  b.telRequests.Value(),
		Errors:    b.telErrors.Value(),
		Hedges:    b.telHedges.Value(),
		Ejections: b.telEjections.Value(),
	}
}

func drain(resp *http.Response) {
	var sink [512]byte
	for {
		if _, err := resp.Body.Read(sink[:]); err != nil {
			return
		}
	}
}

func (g *Gateway) logf(format string, args ...any) {
	if g.cfg.Logf != nil {
		g.cfg.Logf(format, args...)
	}
}
