package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/reach"
	"repro/internal/roadmap"
	"repro/internal/scenario"
	"repro/internal/scene"
	"repro/internal/server"
	"repro/internal/sti"
	"repro/internal/telemetry"
)

// session_fleet: 10 vehicle sessions at 10 Hz, open loop, through
// iprism-gateway to one iprism-serve.
const (
	tickPeriod   = 100 * time.Millisecond
	tickDeadline = 100 * time.Millisecond
	fleetWarmup  = 2 * time.Second
	offsetWindow = 20 // trace start offsets are drawn from [0, offsetWindow)
	// fleetTailPct is the gated tick tail. The p99 is reported too, but on
	// a shared machine it swings about twice as much as the median: a
	// slower machine lengthens the costly crush ticks, and the few
	// senders queue the ticks behind them.
	fleetTailPct    = 95
	minTimedTicks   = 1000
	sessionTickTime = 0.1 // seconds of scene time per tick
)

// sessionKind is one recorded session trace family.
type sessionKind struct {
	name  string
	count int // sessions of this kind in the fleet
	build func(ticks int) (roadmap.Map, []scenario.SessionTick)
}

// fleetKinds is the fixed session mix: about half stop-and-go queues,
// a third ring platoons, the rest urban crushes. Ten sessions, not twenty:
// at twenty the serving programs used about 0.8 of 2 CPUs, and when the
// host took a tenth to a third of the CPUs' time (as shared hosts do for
// minutes at a time) the open loop backed up and the tick p50 moved from 5
// to 19 ms while CPU per tick stayed put.
var fleetKinds = []sessionKind{
	{"stopgo", 5, func(n int) (roadmap.Map, []scenario.SessionTick) { return scenario.StopAndGoSession(12, n) }},
	{"ring", 3, func(n int) (roadmap.Map, []scenario.SessionTick) { return scenario.RingSession(8, n) }},
	{"crush", 2, func(n int) (roadmap.Map, []scenario.SessionTick) { return scenario.UrbanCrushSession(64, n) }},
}

// fleetInputs are the generated session ticks of one seed: every tick body
// each kind can send, its cold reference STI, and the fleet's sessions.
type fleetInputs struct {
	bodies   [][][]byte  // [kind][trace tick] encoded observation
	ref      [][]float64 // [kind][trace tick] cold combined STI
	sessions []fleetSession
	ticks    int // ticks per session in the longest run
}

type fleetSession struct {
	kind   int
	offset int           // first trace tick this session sends
	phase  time.Duration // offset of its ticks within the 100 ms period
}

func makeFleetInputs(seed int64, seconds float64, nproc int) (*fleetInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &fleetInputs{ticks: ticksFor(seconds)}
	traceLen := in.ticks + offsetWindow
	for k, kind := range fleetKinds {
		m, ticks := kind.build(traceLen)
		bodies := make([][]byte, traceLen)
		for i, t := range ticks {
			sc, err := scene.FromParts(m, t.Ego, t.Actors, float64(i)*sessionTickTime)
			if err != nil {
				return nil, err
			}
			if bodies[i], err = scene.Encode(sc); err != nil {
				return nil, err
			}
		}
		in.bodies = append(in.bodies, bodies)
		for j := 0; j < kind.count; j++ {
			in.sessions = append(in.sessions, fleetSession{kind: k, offset: rng.Intn(offsetWindow)})
		}
	}
	// Phases sit on evenly spaced slots of the period with the kinds
	// interleaved (a kind's j-th session near fraction (j+½)/count of the
	// period), so no two sessions' ticks fall due together and the costly
	// crush ticks are spread out. The seed adds a jitter of under a fifth
	// of a slot; every seed offers the same load shape.
	order := make([]int, len(in.sessions))
	frac := make([]float64, len(in.sessions))
	seen := map[int]int{}
	for s, fs := range in.sessions {
		order[s] = s
		frac[s] = (float64(seen[fs.kind]) + 0.5) / float64(fleetKinds[fs.kind].count)
		seen[fs.kind]++
	}
	sort.SliceStable(order, func(a, b int) bool { return frac[order[a]] < frac[order[b]] })
	slot := tickPeriod / time.Duration(len(in.sessions))
	for rank, s := range order {
		in.sessions[s].phase = time.Duration(rank)*slot + time.Duration(rng.Int63n(int64(slot/5)))
	}
	var err error
	if in.ref, err = coldReference(in.bodies, nproc); err != nil {
		return nil, err
	}
	return in, nil
}

// schedule lays out the open-loop ticks of a run of the given length: each
// session ticks every 100 ms from its phase, warm-up included.
func (in *fleetInputs) schedule(seconds float64) []plannedOp {
	ticks := min(in.ticks, ticksFor(seconds))
	var ops []plannedOp
	for s, fs := range in.sessions {
		for k := 0; k < ticks; k++ {
			ops = append(ops, plannedOp{Stream: s, Seq: k, Due: fs.phase + time.Duration(k)*tickPeriod})
		}
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].Due < ops[j].Due })
	return ops
}

func ticksFor(seconds float64) int {
	return int(math.Ceil((fleetWarmup.Seconds() + seconds) / tickPeriod.Seconds()))
}

// coldReference scores every tick body from its bytes on a fresh legacy
// evaluator (scene.Decode → Materialize → sti.NewEvaluator), the oracle the
// served warm-started results must equal bitwise.
func coldReference(bodies [][][]byte, workers int) ([][]float64, error) {
	ev, err := sti.NewEvaluator(reach.DefaultConfig())
	if err != nil {
		return nil, err
	}
	type job struct{ k, i int }
	var jobs []job
	ref := make([][]float64, len(bodies))
	for k := range bodies {
		ref[k] = make([]float64, len(bodies[k]))
		for i := range bodies[k] {
			jobs = append(jobs, job{k, i})
		}
	}
	err = forEach(len(jobs), workers, func(n int) error {
		j := jobs[n]
		res, err := referenceScore(ev, bodies[j.k][j.i])
		ref[j.k][j.i] = res.Combined
		return err
	})
	return ref, err
}

// fleetRun is one set-up instance of the serving stack.
type fleetRun struct {
	serve, gw     *child
	serveURL, url string
	ids           []string
	serveJournal  string
	gwJournal     string
}

func (r *fleetRun) stop() error {
	err1 := r.gw.stop()
	err2 := r.serve.stop()
	if err1 != nil {
		return err1
	}
	return err2
}

// setupFleet starts iprism-serve and iprism-gateway with default engine
// flags and opens the fleet's sessions through the gateway.
func setupFleet(cfg runConfig, hc *http.Client, n int, instance int) (*fleetRun, error) {
	r := &fleetRun{}
	tag := fmt.Sprintf("%d", instance)
	serveAddr := filepath.Join(cfg.dir, "serve"+tag+".addr")
	args := []string{"-addr", "127.0.0.1:0", "-addr-file", serveAddr}
	if cfg.traced {
		r.serveJournal = filepath.Join(cfg.dir, "serve"+tag+".jsonl")
		args = append(args, "-journal", r.serveJournal)
	}
	var err error
	if r.serve, err = startChild(cfg.dir, "serve"+tag, filepath.Join(cfg.bin, "iprism-serve"), args...); err != nil {
		return nil, err
	}
	fail := func(err error) (*fleetRun, error) {
		if r.gw != nil {
			r.gw.stop()
		}
		r.serve.stop()
		return nil, err
	}
	addr, err := r.serve.waitAddr(serveAddr, 30*time.Second)
	if err != nil {
		return fail(err)
	}
	r.serveURL = "http://" + addr
	if err := waitHealthy(hc, r.serveURL+"/healthz", 30*time.Second); err != nil {
		return fail(err)
	}
	gwAddr := filepath.Join(cfg.dir, "gateway"+tag+".addr")
	args = []string{"-addr", "127.0.0.1:0", "-addr-file", gwAddr, "-backends", addr}
	if cfg.traced {
		r.gwJournal = filepath.Join(cfg.dir, "gateway"+tag+".jsonl")
		args = append(args, "-journal", r.gwJournal)
	}
	if r.gw, err = startChild(cfg.dir, "gateway"+tag, filepath.Join(cfg.bin, "iprism-gateway"), args...); err != nil {
		return fail(err)
	}
	if addr, err = r.gw.waitAddr(gwAddr, 30*time.Second); err != nil {
		return fail(err)
	}
	r.url = "http://" + addr
	if err := waitHealthy(hc, r.url+"/healthz", 30*time.Second); err != nil {
		return fail(err)
	}
	for i := 0; i < n; i++ {
		var created server.SessionCreateResponse
		if err := postJSON(hc, r.url+"/v1/sessions", []byte("{}"), &created); err != nil {
			return fail(err)
		}
		r.ids = append(r.ids, created.ID)
	}
	return r, nil
}

// probeEngine asks the serving stack, through a throw-away session, which
// engine really scored a session tick: two ticks with ?explain=1, the
// second of which reports whether the warm start engaged.
func probeEngine(hc *http.Client, base string, bodies [][]byte) (string, error) {
	var created server.SessionCreateResponse
	if err := postJSON(hc, base+"/v1/sessions", []byte("{}"), &created); err != nil {
		return "", err
	}
	var resp server.SessionObserveResponse
	for _, b := range bodies[:2] {
		if err := postJSON(hc, base+"/v1/sessions/"+created.ID+"/observe?explain=1", b, &resp); err != nil {
			return "", err
		}
	}
	if err := del(hc, base+"/v1/sessions/"+created.ID); err != nil {
		return "", err
	}
	if resp.Provenance == nil {
		return "", fmt.Errorf("observe ?explain=1 returned no provenance")
	}
	engine := resp.Provenance.Engine
	if resp.Provenance.WarmHit {
		engine += "+warm"
	}
	return engine, nil
}

func runFleet(cfg runConfig, in *fleetInputs) (*outcome, error) {
	ops := in.schedule(cfg.seconds)
	hc := newClient(cfg.nproc)
	o := newOutcome()

	// Set up several times and keep the last instance for measuring.
	var run *fleetRun
	var setups []float64
	var err error
	for i := 0; i < setupRepeats; i++ {
		if run != nil {
			if err := run.stop(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if run, err = setupFleet(cfg, hc, len(in.sessions), i); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	o.setup = median(setups)
	stopped := false
	defer func() {
		if !stopped {
			run.stop()
		}
	}()
	if o.engine, err = probeEngine(hc, run.url, in.bodies[0]); err != nil {
		return nil, fmt.Errorf("engine probe: %w", err)
	}

	var mismatches atomic.Int64
	var firstMismatch atomic.Value
	traceIDs := make(map[plannedOp]string)
	if cfg.traced {
		for i, op := range ops {
			traceIDs[op] = fmt.Sprintf("%016x%016x", uint64(cfg.seed)|1<<62, uint64(i+1))
		}
	}
	send := func(op plannedOp) error {
		fs := in.sessions[op.Stream]
		idx := fs.offset + op.Seq
		status, body, err := post(hc, run.url+"/v1/sessions/"+run.ids[op.Stream]+"/observe", in.bodies[fs.kind][idx], traceIDs[op])
		if err != nil {
			return err
		}
		if status != 200 {
			return fmt.Errorf("status %d", status)
		}
		var resp server.SessionObserveResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		want := in.ref[fs.kind][idx]
		if math.Float64bits(resp.STI) != math.Float64bits(want) || !(resp.STI >= 0 && resp.STI <= 1) || resp.Time != float64(idx)*sessionTickTime {
			mismatches.Add(1)
			firstMismatch.CompareAndSwap(nil, fmt.Sprintf("%s session %d tick %d: sti %v, cold reference %v", fleetKinds[fs.kind].name, op.Stream, idx, resp.STI, want))
			return fmt.Errorf("wrong result")
		}
		return nil
	}

	// Sample server and gateway CPU (and, traced, their telemetry) at the
	// start of the timed window, off the senders' goroutines.
	start := time.Now().Add(20 * time.Millisecond)
	type sample struct {
		cpuServe, cpuGW float64
		telServe, telGW telemetry.Snapshot
		err             error
	}
	at := make(chan sample, 1)
	go func() {
		realClock{}.SleepUntil(start.Add(fleetWarmup))
		var s sample
		s.cpuServe, s.err = cpuOf(run.serve)
		if s.err == nil {
			s.cpuGW, s.err = cpuOf(run.gw)
		}
		if s.err == nil && cfg.traced {
			if s.telServe, s.err = fetchTelemetry(hc, run.serveURL); s.err == nil {
				s.telGW, s.err = fetchTelemetry(hc, run.url)
			}
		}
		at <- s
	}()
	timings := runOpenLoop(realClock{}, start, ops, cfg.nproc, send)
	s0 := <-at
	if s0.err != nil {
		return nil, s0.err
	}
	cpuServe, err := cpuOf(run.serve)
	if err != nil {
		return nil, err
	}
	cpuGW, err := cpuOf(run.gw)
	if err != nil {
		return nil, err
	}
	var telServe, telGW telDelta
	if cfg.traced {
		telServe.a, telGW.a = s0.telServe, s0.telGW
		if telServe.b, err = fetchTelemetry(hc, run.serveURL); err != nil {
			return nil, err
		}
		if telGW.b, err = fetchTelemetry(hc, run.url); err != nil {
			return nil, err
		}
	}
	if o.rss, err = rssOf(run.serve, run.gw); err != nil {
		return nil, err
	}
	stopped = true
	if err := run.stop(); err != nil {
		return nil, err
	}

	// Timings are in due order, so windows of lat are windows of time.
	var lat, late []float64
	var latAt []time.Time
	var timed []opTiming
	var errs []string
	for _, t := range timings {
		if t.Op.Due < fleetWarmup {
			if t.Err != nil && len(errs) < 3 {
				errs = append(errs, fmt.Sprintf("warm-up tick: %v", t.Err))
			}
			continue
		}
		timed = append(timed, t)
		o.attempted++
		lat = append(lat, ms(t.Latency))
		latAt = append(latAt, start.Add(t.Op.Due))
		late = append(late, ms(t.Lateness))
		if t.Err != nil || t.Latency > tickDeadline {
			o.failed++
			if t.Err != nil && len(errs) < 3 {
				errs = append(errs, t.Err.Error())
			}
		}
	}
	o.mismatches = int(mismatches.Load())
	if m, ok := firstMismatch.Load().(string); ok {
		o.lines = append(o.lines, "MISMATCH "+m)
	}
	for _, e := range errs {
		o.lines = append(o.lines, "error: "+e)
	}
	if o.attempted < minTimedTicks {
		return nil, fmt.Errorf("only %d timed ticks; run at least %v", o.attempted, time.Duration(minTimedTicks/(10*len(in.sessions))+1)*time.Second)
	}
	window := timings[len(timings)-1].Done.Sub(start.Add(fleetWarmup)).Seconds()
	o.samples = len(lat)
	o.lat, o.latAt = lat, latAt
	o.latP50 = median(lat)
	o.latTail, o.tailPct = windowedTail(lat, fleetTailPct)
	p99, _ := windowedTail(lat, 99)
	ticks := float64(o.attempted)
	o.cpuPerOp = (cpuServe - s0.cpuServe + cpuGW - s0.cpuGW) * 1e3 / ticks
	o.goodput = float64(o.attempted-o.failed) / window
	o.offeredLoad = true
	o.named = []named{
		{"tick_p50_ms", o.latP50, "ms"},
		{fmt.Sprintf("tick_p%g_ms", o.tailPct), o.latTail, "ms"},
		{"tick_p99_ms", p99, "ms"},
		{"cpu_ms_per_tick", o.cpuPerOp, "ms"},
		{"ticks_on_time_per_s", o.goodput, "1/s"},
		{"session_capacity", ratio(float64(cfg.nproc)*1e3, o.cpuPerOp) * tickPeriod.Seconds(), "sessions"},
	}
	o.layers["client.lateness_p99_ms"] = percentile(late, 99)
	o.layers["client.tick_p99_ms"] = p99
	o.layers["server.cpu_ms_per_op"] = (cpuServe - s0.cpuServe) * 1e3 / ticks
	o.layers["gateway.cpu_ms_per_tick"] = (cpuGW - s0.cpuGW) * 1e3 / ticks
	if !cfg.traced {
		return o, nil
	}

	// Traced: join client spans with the journals' wide events.
	gwEvents, err := readWideEvents(run.gwJournal)
	if err != nil {
		return nil, err
	}
	srvEvents, err := readWideEvents(run.serveJournal)
	if err != nil {
		return nil, err
	}
	var ledgers []ledger
	var events []*wideEvent
	for _, t := range timed {
		id := traceIDs[t.Op]
		gw, srv := gwEvents[id], srvEvents[id]
		if gw == nil || srv == nil || t.Err != nil {
			continue
		}
		ledgers = append(ledgers, buildLedger(ms(t.Done.Sub(t.Sent)), gw, srv))
		events = append(events, srv)
	}
	o.addLedgerLayers(ledgers, len(timed))
	o.addEventLayers(events)
	o.addServeTelemetry(telServe)
	o.layers["gateway.retries"] = telGW.counter("gateway.proxy.retries")
	o.layers["gateway.hedges"] = telGW.counter("gateway.proxy.hedges")

	var allBodies [][]byte
	for _, kb := range in.bodies {
		allBodies = append(allBodies, kb...)
	}
	o.addCodecLayers(sceneCodecCost(allBodies))
	if err := o.addSessionEngineLayers(in); err != nil {
		return nil, err
	}
	return o, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
