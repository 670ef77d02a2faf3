package reach

import (
	"fmt"
	"testing"

	"repro/internal/actor"
	"repro/internal/geom"
	"repro/internal/roadmap"
	"repro/internal/scenario"
	"repro/internal/vehicle"
)

// benchSink keeps the benchmarked results live.
var benchSink SharedTubes

// benchTicks is one benchmark input: a map plus a sequence of scene ticks
// with their obstacles prebuilt, so the timed loop measures the masked
// expansion alone.
type benchTicks struct {
	name string
	m    roadmap.Map
	egos []vehicle.State
	obs  []*Obstacles
}

func newBenchTicks(name string, m roadmap.Map, trace []scenario.SessionTick, cfg Config) benchTicks {
	bt := benchTicks{name: name, m: m}
	for _, tk := range trace {
		trajs := actor.PredictAll(tk.Actors, cfg.NumSlices(), cfg.SliceDt)
		bt.egos = append(bt.egos, tk.Ego)
		bt.obs = append(bt.obs, BuildObstacles(tk.Actors, trajs, cfg))
	}
	return bt
}

// dense12Tick is the dense twelve-actor scene of the sti benchmarks and
// cmd/iprism-bench's sti_evaluate_dense12 workload: a fast ego rolling up
// on two ranks of slow traffic across three lanes, with fast vehicles
// closing from behind and a far rank at the horizon's edge.
func dense12Tick() (roadmap.Map, []scenario.SessionTick) {
	m := roadmap.MustStraightRoad(3, 3.5, -100, 1000)
	ego := vehicle.State{Pos: geom.V(0, 5.25), Speed: 12}
	place := []struct{ x, y, v float64 }{
		{30, 1.75, 6}, {36, 5.25, 6}, {33, 8.75, 6},
		{40, 1.75, 6}, {46, 5.25, 6}, {43, 8.75, 6},
		{-14, 5.25, 15}, {-18, 1.75, 16}, {-16, 8.75, 17},
		{55, 5.25, 5}, {52, 1.75, 5}, {53, 8.75, 5},
	}
	actors := make([]*actor.Actor, len(place))
	for i, p := range place {
		actors[i] = actor.NewVehicle(i+1, vehicle.State{Pos: geom.V(p.x, p.y), Speed: p.v})
	}
	return m, []scenario.SessionTick{{Ego: ego, Actors: actors}}
}

// BenchmarkCounterfactuals times one counterfactual expansion per
// iteration, cycling through each input's ticks in order:
//
//   - cold/<scene>: ComputeCounterfactuals;
//   - warm/<scene>: ComputeCounterfactuals with one WarmState carried
//     across iterations, as a server session carries it across ticks, and
//     filled by one untimed pass over the ticks (the single-tick dense12
//     scene is therefore fully warm);
//   - cold-words<k>/dense12: the cold expansion with the mask forced to k
//     words, isolating the cost of the word-indexed mask width on a scene
//     that fits one word.
//
// To compare two builds, compile each with go test -c and alternate single
// runs of the two binaries from the package directory:
//
//	./reach.test -test.run '^$' -test.bench Counterfactuals -test.count 1
func BenchmarkCounterfactuals(b *testing.B) {
	cfg := DefaultConfig()
	var inputs []benchTicks
	{
		m, tr := dense12Tick()
		inputs = append(inputs, newBenchTicks("dense12", m, tr, cfg))
	}
	{
		m, tr := scenario.StopAndGoSession(12, 20)
		inputs = append(inputs, newBenchTicks("stopgo12", m, tr, cfg))
	}
	{
		m, tr := scenario.UrbanCrushSession(64, 10)
		inputs = append(inputs, newBenchTicks("crush64", m, tr, cfg))
	}
	for _, in := range inputs {
		b.Run("cold/"+in.name, func(b *testing.B) {
			scr := NewScratch()
			for i := 0; i < b.N; i++ {
				t := i % len(in.obs)
				benchSink, _ = ComputeCounterfactuals(in.m, in.obs[t], in.egos[t], cfg, scr, nil)
			}
		})
		b.Run("warm/"+in.name, func(b *testing.B) {
			scr, ws := NewScratch(), NewWarmState()
			for t := range in.obs { // fill the memo: measure steady-state ticks
				ComputeCounterfactuals(in.m, in.obs[t], in.egos[t], cfg, scr, ws)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t := i % len(in.obs)
				benchSink, _ = ComputeCounterfactuals(in.m, in.obs[t], in.egos[t], cfg, scr, ws)
			}
		})
	}
	dense := inputs[0]
	for _, words := range []int{1, 2} {
		b.Run(fmt.Sprintf("cold-words%d/dense12", words), func(b *testing.B) {
			scr := NewScratch()
			for i := 0; i < b.N; i++ {
				base, without := expand(dense.m, dense.obs[0], dense.egos[0], cfg, scr, nil, 1+dense.obs[0].NumActors(), words)
				benchSink = sharedTubes(base, without, words)
			}
		})
	}
}
