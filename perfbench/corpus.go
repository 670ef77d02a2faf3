package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/actor"
	"repro/internal/reach"
	"repro/internal/roadmap"
	"repro/internal/scenario"
	"repro/internal/scene"
	"repro/internal/server"
	"repro/internal/sti"
	"repro/internal/telemetry"
	"repro/internal/vehicle"
)

// corpus_batch: closed loop, one client per CPU, POST /v1/score/batch of
// 32 scenes straight to iprism-serve.
const (
	corpusBatch       = 16
	corpusPerTypology = 300
	corpusCrushEvery  = 16 // one crowd scene in about this many
	corpusWarmup      = 2 * time.Second
	corpusTailPct     = 95
)

// corpusInputs is one seed's scene corpus: every scene's bytes and cold
// reference, and the batch request bodies cycling through it.
type corpusInputs struct {
	scenes  [][]byte
	ref     []sti.Result
	batches [][]int // scene indices of each batch body
	bodies  [][]byte
}

func makeCorpusInputs(seed int64, nproc int) (*corpusInputs, error) {
	var all []scene.Scene
	for ty := scenario.GhostCutIn; ty <= scenario.RearEnd; ty++ {
		fx, err := scenario.Fixtures(ty, corpusPerTypology, seed+int64(ty))
		if err != nil {
			return nil, err
		}
		all = append(all, fx...)
	}
	crowd := len(all) / (corpusCrushEvery - 1)
	for i := 0; i < crowd; i++ {
		n := 64
		if i%2 == 1 {
			n = 128
		}
		m, ego, actors := scenario.UrbanCrush(n)
		sc, err := scene.FromParts(m, ego, actors, 0)
		if err != nil {
			return nil, err
		}
		all = append(all, sc)
	}
	rng := rand.New(rand.NewSource(seed))
	in := &corpusInputs{}
	for _, i := range rng.Perm(len(all)) {
		b, err := scene.Encode(all[i])
		if err != nil {
			return nil, err
		}
		in.scenes = append(in.scenes, b)
	}
	// Reference every distinct scene once (the crowd scenes repeat).
	ev, err := sti.NewEvaluator(reach.DefaultConfig())
	if err != nil {
		return nil, err
	}
	in.ref = make([]sti.Result, len(in.scenes))
	first := map[string]int{}
	var todo []int
	for i, b := range in.scenes {
		if _, ok := first[string(b)]; !ok {
			first[string(b)] = i
			todo = append(todo, i)
		}
	}
	err = forEach(len(todo), nproc, func(n int) error {
		var err error
		in.ref[todo[n]], err = referenceScore(ev, in.scenes[todo[n]])
		return err
	})
	if err != nil {
		return nil, err
	}
	for i, b := range in.scenes {
		in.ref[i] = in.ref[first[string(b)]]
	}
	// Batches walk the shuffled corpus in order, wrapping at the end, so
	// every scene is sent once per cycle of bodies.
	nb := (len(in.scenes) + corpusBatch - 1) / corpusBatch
	for b := 0; b < nb; b++ {
		var idx []int
		var body bytes.Buffer
		body.WriteString(`{"scenes":[`)
		for j := 0; j < corpusBatch; j++ {
			i := (b*corpusBatch + j) % len(in.scenes)
			if j > 0 {
				body.WriteByte(',')
			}
			body.Write(in.scenes[i])
			idx = append(idx, i)
		}
		body.WriteString(`]}`)
		in.batches = append(in.batches, idx)
		in.bodies = append(in.bodies, body.Bytes())
	}
	return in, nil
}

// checkBatch compares a batch response with the cold references bitwise.
// It returns the number of scenes that failed to score and a description
// of the first wrong result, if any.
func (in *corpusInputs) checkBatch(b int, body []byte) (failed int, wrong string, err error) {
	var resp server.BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return 0, "", err
	}
	idx := in.batches[b]
	if len(resp.Results) != len(idx) {
		return 0, fmt.Sprintf("batch %d: %d results for %d scenes", b, len(resp.Results), len(idx)), nil
	}
	for j, r := range resp.Results {
		if r.Error != "" {
			failed++
			continue
		}
		ref := in.ref[idx[j]]
		ok := same(r.Combined, ref.Combined) && len(r.Actors) == len(ref.PerActor)
		for a := 0; ok && a < len(r.Actors); a++ {
			ok = same(r.Actors[a].STI, ref.PerActor[a])
		}
		if !ok {
			return failed, fmt.Sprintf("batch %d scene %d: combined %v, cold reference %v", b, idx[j], r.Combined, ref.Combined), nil
		}
	}
	return failed, "", nil
}

// same reports bitwise equality of a served STI with its reference, and
// that it lies in [0, 1].
func same(got, want float64) bool {
	return math.Float64bits(got) == math.Float64bits(want) && got >= 0 && got <= 1
}

// corpusRun is one set-up instance of iprism-serve.
type corpusRun struct {
	serve   *child
	url     string
	journal string
}

func setupCorpus(cfg runConfig, hc *http.Client, instance int) (*corpusRun, error) {
	r := &corpusRun{}
	tag := fmt.Sprintf("%d", instance)
	addrFile := filepath.Join(cfg.dir, "serve"+tag+".addr")
	args := []string{"-addr", "127.0.0.1:0", "-addr-file", addrFile}
	if cfg.traced {
		r.journal = filepath.Join(cfg.dir, "serve"+tag+".jsonl")
		args = append(args, "-journal", r.journal)
	}
	var err error
	if r.serve, err = startChild(cfg.dir, "serve"+tag, filepath.Join(cfg.bin, "iprism-serve"), args...); err != nil {
		return nil, err
	}
	addr, err := r.serve.waitAddr(addrFile, 30*time.Second)
	if err == nil {
		r.url = "http://" + addr
		err = waitHealthy(hc, r.url+"/healthz", 30*time.Second)
	}
	if err != nil {
		r.serve.stop()
		return nil, err
	}
	return r, nil
}

// batchTiming is one closed-loop batch request.
type batchTiming struct {
	batch      int
	start, end time.Time
	traceID    string
	err        error
	failed     int // scenes answered with an error
}

func runCorpus(cfg runConfig, in *corpusInputs) (*outcome, error) {
	hc := newClient(cfg.nproc)
	o := newOutcome()

	var run *corpusRun
	var setups []float64
	var err error
	for i := 0; i < setupRepeats; i++ {
		if run != nil {
			if err := run.serve.stop(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if run, err = setupCorpus(cfg, hc, i); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	o.setup = median(setups)
	stopped := false
	defer func() {
		if !stopped {
			run.serve.stop()
		}
	}()
	// Probe with a multi-actor scene: single-actor scenes always take the
	// legacy path, whatever the engine.
	var probe server.ScoreResponse
	if err := postJSON(hc, run.url+"/v1/score?explain=1", in.scenes[in.crowdScene()], &probe); err != nil {
		return nil, fmt.Errorf("engine probe: %w", err)
	}
	if probe.Provenance == nil {
		return nil, fmt.Errorf("engine probe: ?explain=1 returned no provenance")
	}
	o.engine = probe.Provenance.Engine

	start := time.Now()
	windowStart := start.Add(corpusWarmup)
	end := windowStart.Add(time.Duration(cfg.seconds * float64(time.Second)))
	type sample struct {
		cpu float64
		tel telemetry.Snapshot
		err error
	}
	at := make(chan sample, 1)
	go func() {
		realClock{}.SleepUntil(windowStart)
		var s sample
		s.cpu, s.err = cpuOf(run.serve)
		if s.err == nil && cfg.traced {
			s.tel, s.err = fetchTelemetry(hc, run.url)
		}
		at <- s
	}()
	var next atomic.Int64
	var mismatches atomic.Int64
	var firstWrong atomic.Value
	results := make([][]batchTiming, cfg.nproc)
	var wg sync.WaitGroup
	for c := 0; c < cfg.nproc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				n := next.Add(1) - 1
				t := batchTiming{batch: int(n) % len(in.bodies), start: time.Now()}
				if !t.start.Before(end) {
					return
				}
				if cfg.traced {
					t.traceID = fmt.Sprintf("%016x%016x", uint64(cfg.seed)|1<<62, uint64(n+1))
				}
				status, body, err := post(hc, run.url+"/v1/score/batch", in.bodies[t.batch], t.traceID)
				switch {
				case err != nil:
					t.err = err
				case status != http.StatusOK:
					t.err = fmt.Errorf("status %d", status)
				default:
					var wrong string
					t.failed, wrong, t.err = in.checkBatch(t.batch, body)
					if wrong != "" {
						mismatches.Add(1)
						firstWrong.CompareAndSwap(nil, wrong)
						t.err = fmt.Errorf("wrong result")
					}
				}
				t.end = time.Now()
				results[c] = append(results[c], t)
			}
		}(c)
	}
	wg.Wait()
	s0 := <-at
	if s0.err != nil {
		return nil, s0.err
	}
	cpu, err := cpuOf(run.serve)
	if err != nil {
		return nil, err
	}
	var tel telDelta
	if cfg.traced {
		tel.a = s0.tel
		if tel.b, err = fetchTelemetry(hc, run.url); err != nil {
			return nil, err
		}
	}
	if o.rss, err = rssOf(run.serve); err != nil {
		return nil, err
	}
	stopped = true
	if err := run.serve.stop(); err != nil {
		return nil, err
	}

	var all []batchTiming
	for _, rs := range results {
		all = append(all, rs...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].start.Before(all[j].start) })
	var lat []float64
	var timed []batchTiming
	scenes := 0
	last := windowStart
	for _, t := range all {
		if t.start.Before(windowStart) {
			continue
		}
		timed = append(timed, t)
		o.attempted++
		lat = append(lat, ms(t.end.Sub(t.start)))
		o.latAt = append(o.latAt, t.start)
		if t.end.After(last) {
			last = t.end
		}
		if t.err != nil || t.failed > 0 {
			o.failed++
			if len(o.lines) < 3 {
				o.lines = append(o.lines, fmt.Sprintf("error: batch %d: %v (%d scenes failed)", t.batch, t.err, t.failed))
			}
		}
		if t.err == nil {
			scenes += corpusBatch - t.failed
		}
	}
	o.mismatches = int(mismatches.Load())
	if w, ok := firstWrong.Load().(string); ok {
		o.lines = append(o.lines, "MISMATCH "+w)
	}
	if o.attempted == 0 || scenes == 0 {
		return nil, fmt.Errorf("no batch completed in the timed window")
	}
	o.samples = len(lat)
	o.lat = lat
	o.latP50 = median(lat)
	o.latTail, o.tailPct = windowedTail(lat, corpusTailPct)
	o.cpuPerOp = (cpu - s0.cpu) * 1e3 / float64(scenes)
	o.goodput = float64(scenes) / last.Sub(windowStart).Seconds()
	o.named = []named{
		{"scenes_per_s", o.goodput, "1/s"},
		{"batch_p50_ms", o.latP50, "ms"},
		{fmt.Sprintf("batch_p%g_ms", o.tailPct), o.latTail, "ms"},
		{"cpu_ms_per_scene", o.cpuPerOp, "ms"},
	}
	o.layers["server.cpu_ms_per_op"] = o.cpuPerOp
	if !cfg.traced {
		return o, nil
	}

	events, err := readWideEvents(run.journal)
	if err != nil {
		return nil, err
	}
	var ledgers []ledger
	var joined []*wideEvent
	for _, t := range timed {
		ev := events[t.traceID]
		if ev == nil || t.err != nil {
			continue
		}
		ledgers = append(ledgers, buildLedger(ms(t.end.Sub(t.start)), nil, ev))
		joined = append(joined, ev)
	}
	o.addLedgerLayers(ledgers, len(timed))
	o.addEventLayers(joined)
	o.addServeTelemetry(tel)
	o.addCodecLayers(batchCodecCost(in.bodies))
	return o, o.addCorpusEngineLayers(in)
}

// addCorpusEngineLayers measures heap allocation per evaluation over the
// corpus on the engine the server reported.
func (o *outcome) addCorpusEngineLayers(in *corpusInputs) error {
	ev, err := sti.NewEvaluatorOptions(reach.DefaultConfig(), engineOptions(o.engine))
	if err != nil {
		return err
	}
	type input struct {
		m      roadmap.Map
		ego    vehicle.State
		actors []*actor.Actor
	}
	var inputs []input
	for _, b := range in.scenes {
		sc, err := scene.Decode(b)
		if err != nil {
			return err
		}
		m, ego, actors, _, _, err := sc.Materialize()
		if err != nil {
			return err
		}
		inputs = append(inputs, input{m, ego, actors})
	}
	o.layers["sti.alloc_kb_per_eval"] = allocKB(len(inputs), func() {
		for _, x := range inputs {
			ev.EvaluateWithPrediction(x.m, x.ego, x.actors)
		}
	})
	cfg := ev.Config()
	predictUS := make([]float64, len(inputs))
	for i, x := range inputs {
		t0 := time.Now()
		actor.PredictAll(x.actors, cfg.NumSlices(), cfg.SliceDt)
		predictUS[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	o.layers["actor.predict_p50_us"] = median(predictUS)
	return nil
}

// crowdScene returns the index of the corpus scene with the most actors.
func (in *corpusInputs) crowdScene() int {
	best, most := 0, -1
	for i, r := range in.ref {
		if len(r.PerActor) > most {
			best, most = i, len(r.PerActor)
		}
	}
	return best
}
