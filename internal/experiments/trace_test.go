package experiments

import (
	"math"
	"testing"

	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/sti"
)

// Every value the trace pass stores equals a direct call of its metric at
// that step, and the training-scenario choice read from the stored STI
// equals the §IV-B1 rule computed directly.
func TestTracePassMatchesDefinitions(t *testing.T) {
	if testing.Short() {
		t.Skip("suite integration")
	}
	opt := tinyOptions()
	opt.ScenariosPerTypology = 3
	suites, err := BuildSuites(opt)
	if err != nil {
		t.Fatal(err)
	}
	ev := mustTrace(t, suites, opt)
	eval, err := sti.NewEvaluator(opt.Reach)
	if err != nil {
		t.Fatal(err)
	}
	pklAll, pklHoldout, err := FitPKLModels(suites, opt)
	if err != nil {
		t.Fatal(err)
	}
	same := func(a, b float64) bool { return a == b || math.IsNaN(a) && math.IsNaN(b) }
	for i, suite := range suites {
		for j, scn := range suite.Scenarios {
			tw, err := newTraceWorld(scn, suite.Outcomes[j].Trace)
			if err != nil {
				t.Fatal(err)
			}
			tr := ev.Suites[i].Traces[j]
			if want := (tw.steps() + opt.MetricStride - 1) / opt.MetricStride; len(tr.STI) != want {
				t.Fatalf("%v #%d: %d trace points, want %d", suite.Typology, j, len(tr.STI), want)
			}
			for k := range tr.STI {
				sc := tw.scene(k*opt.MetricStride, opt.Reach.Horizon)
				for _, c := range []struct {
					name      string
					got, want float64
				}{
					{"STI", tr.STI[k], eval.Combined(sti.Query{Map: sc.Map, Ego: sc.Ego, Actors: sc.Actors, Trajs: sc.Trajs})},
					{"PKL-All", tr.PKLAll[k], pklAll.PKLCombined(sc)},
					{"PKL-Holdout", tr.PKLHoldout[k], pklHoldout.PKLCombined(sc)},
					{"TTC", tr.TTC[k], metrics.TTC(sc)},
					{"Dist. CIPA", tr.CIPA[k], metrics.DistCIPA(sc)},
				} {
					if !same(c.got, c.want) {
						t.Fatalf("%v #%d step %d: %s = %v, direct call %v", suite.Typology, j, k*opt.MetricStride, c.name, c.got, c.want)
					}
				}
			}
		}
		accidents := suite.Accidents()
		if len(accidents) == 0 {
			continue
		}
		want, wantAvg := accidents[0], -1.0
		for _, idx := range accidents {
			tw, err := newTraceWorld(suite.Scenarios[idx], suite.Outcomes[idx].Trace)
			if err != nil {
				t.Fatal(err)
			}
			var vals []float64
			last := min(suite.Outcomes[idx].CollisionStep, tw.steps()-1)
			for ts := 0; ts <= last; ts += opt.MetricStride * 3 {
				vals = append(vals, eval.Combined(sti.Query{Map: tw.m, Ego: tw.ego(ts), Actors: tw.actors(ts), Trajs: tw.futures(ts)}))
			}
			if avg := stats.Mean(vals); avg > wantAvg {
				want, wantAvg = idx, avg
			}
		}
		if got, err := ev.TrainingScenario(suite.Typology); err != nil || got != want {
			t.Errorf("%v training scenario = %d, %v; direct selection picks %d", suite.Typology, got, err, want)
		}
	}
}
