package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/telemetry"
)

// newClient returns the load generator's HTTP client: at most conns
// connections to any one host, all kept alive between requests.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
			IdleConnTimeout:     time.Minute,
		},
	}
}

func drainClose(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body) // a short read only costs the connection
	resp.Body.Close()
}

// post sends body to url and returns the status and response body.
func post(hc *http.Client, url string, body []byte, traceID string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if traceID != "" {
		req.Header.Set("X-Trace-Id", traceID)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// postJSON posts body and decodes a 2xx answer into out.
func postJSON(hc *http.Client, url string, body []byte, out any) error {
	status, b, err := post(hc, url, body, "")
	if err != nil {
		return err
	}
	if status/100 != 2 {
		return fmt.Errorf("POST %s: status %d: %s", url, status, bytes.TrimSpace(b))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(b, out)
}

func del(hc *http.Client, url string) error {
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	drainClose(resp)
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("DELETE %s: status %d", url, resp.StatusCode)
	}
	return nil
}

// fetchTelemetry reads a program's /debug/telemetry registry snapshot.
func fetchTelemetry(hc *http.Client, base string) (telemetry.Snapshot, error) {
	var s telemetry.Snapshot
	resp, err := hc.Get(base + "/debug/telemetry")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("GET %s/debug/telemetry: status %d", base, resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&s)
	return s, err
}

// telDelta is the change of a registry between two snapshots.
type telDelta struct{ a, b telemetry.Snapshot }

func (d telDelta) counter(name string) float64 {
	return float64(d.b.Counters[name] - d.a.Counters[name])
}

// histMean is the mean of the observations a histogram received between
// the snapshots.
func (d telDelta) histMean(name string) float64 {
	ha, hb := d.a.Histograms[name], d.b.Histograms[name]
	return ratio(hb.Sum-ha.Sum, float64(hb.Count)-float64(ha.Count))
}

func (d telDelta) gauge(name string) float64 { return d.b.Gauges[name] }
