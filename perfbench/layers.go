package main

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/actor"
	"repro/internal/reach"
	"repro/internal/roadmap"
	"repro/internal/scene"
	"repro/internal/server"
	"repro/internal/sti"
	"repro/internal/vehicle"
)

// outcome is what one workload run measured.
type outcome struct {
	attempted, failed, mismatches int

	// End-to-end figures (see e2eMetrics for their meaning per workload).
	latP50, latTail, tailPct float64
	samples                  int
	lat                      []float64   // every timed latency, in the order the operations ran
	latAt                    []time.Time // when each operation of lat was due or began
	cpuPerOp, goodput        float64
	offeredLoad              bool // goodput follows the offered load, not the machine's speed
	setup, rss               float64

	named  []named            // the workload's own metric names, for the report
	layers map[string]float64 // per-layer metrics (traced runs)
	engine string             // engine the program reported it ran
	lines  []string           // extra report lines
}

type named struct {
	name  string
	value float64
	unit  string
}

func newOutcome() *outcome { return &outcome{layers: map[string]float64{}} }

// addLedgerLayers reduces the per-request ledgers of a traced run.
func (o *outcome) addLedgerLayers(ls []ledger, timed int) {
	if len(ls) == 0 {
		o.lines = append(o.lines, "ledger: no traced request joined its wide events")
		return
	}
	col := func(f func(ledger) float64) []float64 {
		out := make([]float64, len(ls))
		for i, l := range ls {
			out[i] = f(l)
		}
		return out
	}
	o.layers["client.transport_p50_ms"] = median(col(func(l ledger) float64 { return l.TransportMS }))
	o.layers["gateway.self_p50_ms"] = median(col(func(l ledger) float64 { return l.GatewaySelfMS }))
	o.layers["server.handler_self_p50_ms"] = median(col(func(l ledger) float64 { return l.HandlerSelfMS }))
	worst := 0.0
	for _, l := range ls {
		worst = math.Max(worst, math.Abs(l.ResidualMS))
	}
	o.layers["ledger.residual_max_ms"] = worst
	m := func(f func(ledger) float64) float64 { return mean(col(f)) }
	o.lines = append(o.lines, fmt.Sprintf(
		"ledger (mean ms over %d of %d timed requests): client %.4f = transport %.4f + gateway self %.4f + queue wait %.4f + handler self %.4f + predict %.4f + evaluate %.4f + residual %.6f (max |residual| %.6f)",
		len(ls), timed,
		m(func(l ledger) float64 { return l.ClientMS }),
		m(func(l ledger) float64 { return l.TransportMS }),
		m(func(l ledger) float64 { return l.GatewaySelfMS }),
		m(func(l ledger) float64 { return l.QueueWaitMS }),
		m(func(l ledger) float64 { return l.HandlerSelfMS }),
		m(func(l ledger) float64 { return l.PredictMS }),
		m(func(l ledger) float64 { return l.EvaluateMS }),
		m(func(l ledger) float64 { return l.ResidualMS }),
		worst))
}

// addEventLayers reduces the server wide events of the timed requests.
func (o *outcome) addEventLayers(events []*wideEvent) {
	var queue, evaluate, empty, expansion []float64
	for _, ev := range events {
		queue = append(queue, ev.attrFloat("queue_wait_seconds")*1e3)
		for _, sp := range ev.Spans {
			switch sp.Name {
			case spanEvaluate, spanObserve:
				evaluate = append(evaluate, float64(sp.DurUS)/1e3)
			case "reach.empty_tube":
				empty = append(empty, float64(sp.DurUS)/1e3)
			case "reach.shared_expansion":
				expansion = append(expansion, float64(sp.DurUS)/1e3)
			}
		}
	}
	o.layers["server.queue_wait_p50_ms"] = percentile(queue, 50)
	o.layers["server.queue_wait_p99_ms"] = percentile(queue, 99)
	o.layers["sti.evaluate_p50_ms"] = percentile(evaluate, 50)
	o.layers["sti.empty_tube_p50_ms"] = percentile(empty, 50)
	o.layers["reach.expansion_p50_ms"] = percentile(expansion, 50)
	o.layers["reach.expansion_p99_ms"] = percentile(expansion, 99)
}

// addServeTelemetry reduces iprism-serve's counter deltas over the timed
// window.
func (o *outcome) addServeTelemetry(d telDelta) {
	evals := d.counter("sti.evaluations")
	hits, misses := d.counter("sti.empty_cache.hits"), d.counter("sti.empty_cache.misses")
	props := d.counter("reach.propagations")
	o.layers["server.batch_size_mean"] = d.histMean("server.batch.size")
	o.layers["server.rejected_saturated"] = d.counter("server.rejected.saturated")
	o.layers["server.timeouts"] = d.counter("server.timeouts")
	o.layers["sti.empty_cache_hit_ratio"] = ratio(hits, hits+misses)
	o.layers["sti.warm_hit_ratio"] = d.gauge("sti.warm.hit_ratio")
	o.layers["sti.elided_per_eval"] = ratio(d.counter("sti.counterfactuals.elided"), evals)
	o.layers["reach.states_expanded_per_eval"] = ratio(d.counter("reach.states_expanded")+d.counter("reach.shared.states_expanded"), evals)
	o.layers["reach.propagations_per_eval"] = ratio(props, evals)
	o.layers["reach.pruned_ratio"] = ratio(d.counter("reach.pruned"), props)
	o.layers["reach.worlds_mean"] = d.histMean("reach.shared.worlds")
	o.layers["reach.mask_words_mean"] = d.histMean("sti.shared_expansion.mask_words")
}

// codecCost is the benchmark's own timing of the request codec on the
// exact request bodies a run sent.
type codecCost struct {
	decodeUS, validateUS, materializeUS, bytes float64 // per scene
}

func (o *outcome) addCodecLayers(c codecCost) {
	o.layers["scene.decode_us_per_scene"] = c.decodeUS
	o.layers["scene.validate_us_per_scene"] = c.validateUS
	o.layers["scene.materialize_us_per_scene"] = c.materializeUS
	o.layers["scene.bytes_per_scene"] = c.bytes
}

// codecPasses is how many times the codec timing walks the bodies; the
// median pass is reported.
const codecPasses = 5

// sceneCodecCost times decode, validate and materialize over single-scene
// bodies (session observations).
func sceneCodecCost(bodies [][]byte) codecCost {
	return timeCodec(bodies, func(b []byte) ([]scene.Scene, error) {
		var sc scene.Scene
		err := json.Unmarshal(b, &sc)
		return []scene.Scene{sc}, err
	})
}

// batchCodecCost is sceneCodecCost over batch request bodies.
func batchCodecCost(bodies [][]byte) codecCost {
	return timeCodec(bodies, func(b []byte) ([]scene.Scene, error) {
		var req server.BatchRequest
		err := json.Unmarshal(b, &req)
		return req.Scenes, err
	})
}

func timeCodec(bodies [][]byte, decode func([]byte) ([]scene.Scene, error)) codecCost {
	var dec, val, mat []float64
	scenes, size := 0, 0
	for pass := 0; pass < codecPasses; pass++ {
		var d, v, m time.Duration
		scenes, size = 0, 0
		for _, b := range bodies {
			t0 := time.Now()
			scs, err := decode(b)
			d += time.Since(t0)
			if err != nil {
				continue
			}
			scenes += len(scs)
			size += len(b)
			for _, sc := range scs {
				t1 := time.Now()
				_ = sc.Validate() // timed only; the served responses were checked
				t2 := time.Now()
				_, _, _, _, _, _ = sc.Materialize()
				v += t2.Sub(t1)
				m += time.Since(t2)
			}
		}
		n := float64(max(scenes, 1))
		dec = append(dec, float64(d.Microseconds())/n)
		val = append(val, float64(v.Nanoseconds())/1e3/n)
		mat = append(mat, float64(m.Nanoseconds())/1e3/n)
	}
	return codecCost{median(dec), median(val), median(mat), float64(size) / float64(max(scenes, 1))}
}

// engineOptions mirrors the engine the program reported into an in-process
// evaluator, so the benchmark's own per-evaluation figures describe the
// engine that served.
func engineOptions(engine string) sti.Options {
	return sti.Options{
		Workers:         1,
		SharedExpansion: strings.HasPrefix(engine, sti.EngineShared),
		WarmStart:       strings.Contains(engine, "+warm"),
	}
}

// allocKB returns the heap bytes allocated by fn, in KiB, per call of the
// n evaluations it performs.
func allocKB(n int, fn func()) float64 {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.TotalAlloc-a.TotalAlloc) / 1024 / float64(max(n, 1))
}

// warmTicks is how many ticks of each session trace the benchmark replays
// in-process for the warm-start layer figures.
const warmTicks = 100

// addSessionEngineLayers replays each session kind's trace in-process: the
// reach-level warm reuse ratio from reach.ComputeCounterfactualsWarm, and
// heap allocation per evaluation on the engine the server reported.
func (o *outcome) addSessionEngineLayers(in *fleetInputs) error {
	cfg := reach.DefaultConfig()
	ev, err := sti.NewEvaluatorOptions(cfg, engineOptions(o.engine))
	if err != nil {
		return err
	}
	evals := 0
	var replay []func()
	var predictUS []float64
	for k, kind := range fleetKinds {
		type tick struct {
			m      roadmap.Map
			ego    vehicle.State
			actors []*actor.Actor
			trajs  []actor.Trajectory
		}
		var ticks []tick
		for _, b := range in.bodies[k][:min(warmTicks, len(in.bodies[k]))] {
			sc, err := scene.Decode(b)
			if err != nil {
				return err
			}
			m, ego, actors, _, _, err := sc.Materialize()
			if err != nil {
				return err
			}
			t0 := time.Now()
			trajs := actor.PredictAll(actors, cfg.NumSlices(), cfg.SliceDt)
			predictUS = append(predictUS, float64(time.Since(t0).Nanoseconds())/1e3)
			ticks = append(ticks, tick{m, ego, actors, trajs})
		}
		ws := reach.NewWarmState()
		scr := reach.NewScratch()
		reused, invalidated := 0, 0
		for _, t := range ticks {
			_, st := reach.ComputeCounterfactualsWarm(t.m, reach.BuildObstacles(t.actors, t.trajs, cfg), t.ego, cfg, scr, ws)
			reused += st.Reused
			invalidated += st.Invalidated
		}
		o.layers["reach.warm_reuse_ratio."+kind.name] = ratio(float64(reused), float64(reused+invalidated))
		evals += len(ticks)
		replay = append(replay, func() {
			sws := sti.NewWarmState()
			for _, t := range ticks {
				ev.EvaluateWarm(t.m, t.ego, t.actors, t.trajs, sws)
			}
		})
	}
	o.layers["sti.alloc_kb_per_eval"] = allocKB(evals, func() {
		for _, f := range replay {
			f()
		}
	})
	o.layers["actor.predict_p50_us"] = median(predictUS)
	return nil
}

// forEach runs fn(i) for every i in [0, n) on a fixed set of worker
// goroutines and returns the first error.
func forEach(n, workers int, fn func(i int) error) error {
	var next atomic.Int64
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// referenceScore is the cold oracle for one encoded scene: decode,
// materialize and evaluate on ev, predicting any missing trajectory with
// CVTR exactly as the server does.
func referenceScore(ev *sti.Evaluator, body []byte) (sti.Result, error) {
	sc, err := scene.Decode(body)
	if err != nil {
		return sti.Result{}, err
	}
	m, ego, actors, trajs, hasTrajs, err := sc.Materialize()
	if err != nil {
		return sti.Result{}, err
	}
	if !hasTrajs {
		return ev.EvaluateWithPrediction(m, ego, actors), nil
	}
	cfg := ev.Config()
	for i, tr := range trajs {
		if tr.Len() == 0 {
			trajs[i] = actor.PredictCVTR(actors[i], cfg.NumSlices(), cfg.SliceDt)
		}
	}
	return ev.Evaluate(m, ego, actors, trajs), nil
}
