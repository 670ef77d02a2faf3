package experiments

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/scenario"
	"repro/internal/sti"
)

// tinyOptions keeps the integration tests minutes-scale while preserving
// the experiment shapes.
func tinyOptions() Options {
	opt := DefaultOptions()
	opt.ScenariosPerTypology = 16
	opt.TrainEpisodes = 12
	opt.MetricStride = 4
	opt.Workers = 2
	return opt
}

func TestOptionsValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Options)
	}{
		{"zero scenarios", func(o *Options) { o.ScenariosPerTypology = 0 }},
		{"zero workers", func(o *Options) { o.Workers = 0 }},
		{"zero episodes", func(o *Options) { o.TrainEpisodes = 0 }},
		{"zero stride", func(o *Options) { o.MetricStride = 0 }},
		{"bad reach", func(o *Options) { o.Reach.Horizon = -1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			o := DefaultOptions()
			tt.mutate(&o)
			if err := o.Validate(); err == nil {
				t.Error("Validate() = nil, want error")
			}
		})
	}
	if err := DefaultOptions().Validate(); err != nil {
		t.Errorf("default options invalid: %v", err)
	}
}

func buildTinySuites(t *testing.T) ([]Suite, Options) {
	t.Helper()
	opt := tinyOptions()
	suites, err := BuildSuites(opt)
	if err != nil {
		t.Fatal(err)
	}
	return suites, opt
}

// mustTrace runs the trace pass over suites.
func mustTrace(t *testing.T, suites []Suite, opt Options) *Evidence {
	t.Helper()
	ev, err := Trace(suites, opt)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

func TestBuildSuitesAndTableI(t *testing.T) {
	if testing.Short() {
		t.Skip("suite integration")
	}
	suites, _ := buildTinySuites(t)
	if len(suites) != 5 {
		t.Fatalf("suites = %d", len(suites))
	}
	rows := TableI(suites)
	byTy := map[scenario.Typology]TableIRow{}
	for _, r := range rows {
		byTy[r.Typology] = r
		if len(r.Hyperparameters) != 3 {
			t.Errorf("%v hyperparameters = %v", r.Typology, r.Hyperparameters)
		}
		if r.Instances == 0 {
			t.Errorf("%v has no instances", r.Typology)
		}
	}
	// Table I shape: front accident has zero ego accidents; ghost cut-in
	// and rear-end are the most accident-prone.
	if byTy[scenario.FrontAccident].Accidents != 0 {
		t.Errorf("front accident accidents = %d, want 0", byTy[scenario.FrontAccident].Accidents)
	}
	if byTy[scenario.GhostCutIn].Accidents == 0 || byTy[scenario.RearEnd].Accidents == 0 {
		t.Error("cut-in/rear-end suites must contain baseline accidents")
	}
	// Traces must be recorded for the offline studies.
	if len(suites[0].Outcomes[0].Trace) == 0 {
		t.Error("suite outcomes missing traces")
	}
}

func TestTableIILTFMAShape(t *testing.T) {
	if testing.Short() {
		t.Skip("LTFMA integration")
	}
	suites, opt := buildTinySuites(t)
	res := TableII(mustTrace(t, suites, opt))
	if len(res.Typologies) == 0 {
		t.Fatal("no typologies with accidents")
	}
	for _, name := range MetricNames {
		if len(res.LTFMA[name]) != len(res.Typologies) {
			t.Fatalf("metric %q rows = %d, want %d", name, len(res.LTFMA[name]), len(res.Typologies))
		}
	}
	t.Logf("LTFMA averages: TTC=%.2f CIPA=%.2f PKL-All=%.2f PKL-Holdout=%.2f STI=%.2f",
		res.Average["TTC"], res.Average["Dist. CIPA"], res.Average["PKL-All"],
		res.Average["PKL-Holdout"], res.Average["STI"])
	// The headline claim: STI leads every other metric on average.
	for _, name := range []string{"TTC", "Dist. CIPA", "PKL-All"} {
		if res.Average["STI"] <= res.Average[name] {
			t.Errorf("STI average LTFMA %.2f should exceed %s %.2f",
				res.Average["STI"], name, res.Average[name])
		}
	}
	// Ghost cut-in: frontal metrics are blind (near-zero lead time).
	for i, ty := range res.Typologies {
		if ty != scenario.GhostCutIn {
			continue
		}
		if ttc := res.LTFMA["TTC"][i].Mean; ttc > 1.0 {
			t.Errorf("ghost cut-in TTC lead time = %.2f, want ~0", ttc)
		}
		if sti := res.LTFMA["STI"][i].Mean; sti < 1.0 {
			t.Errorf("ghost cut-in STI lead time = %.2f, want >= 1", sti)
		}
	}
}

func TestFig4SeriesShape(t *testing.T) {
	if testing.Short() {
		t.Skip("trace integration")
	}
	suites, opt := buildTinySuites(t)
	series := Fig4(mustTrace(t, suites[:1], opt)) // ghost cut-in only, for speed
	if len(series) != 4 {
		t.Fatalf("series = %d, want 4 metrics (STI, PKL, TTC, CIPA)", len(series))
	}
	for _, s := range series {
		if s.Dt <= 0 {
			t.Errorf("%s Dt = %v", s.Metric, s.Dt)
		}
		if s.Accident.Len() == 0 {
			t.Errorf("%s accident series empty", s.Metric)
		}
		if s.Metric == "STI" {
			// Accident STI traces should climb towards 1 near the end.
			end := s.Accident.Mean[s.Accident.Len()-1]
			if end < 0.5 {
				t.Errorf("accident STI final mean = %v, want >= 0.5", end)
			}
		}
	}
}

func TestFig6LongTail(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus integration")
	}
	opt := tinyOptions()
	corpus := dataset.DefaultCorpusConfig()
	corpus.Logs = 10
	corpus.Steps = 100
	res, err := Fig6(corpus, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples == 0 {
		t.Fatal("no samples")
	}
	if res.Actor.P50 != 0 {
		t.Errorf("actor p50 = %v, want 0 (paper: 0.0)", res.Actor.P50)
	}
	if res.ActorZeroFraction < 0.6 {
		t.Errorf("actor zero fraction = %v, want >= 0.6", res.ActorZeroFraction)
	}
	if res.Combined.P99 > 1 {
		t.Errorf("combined p99 = %v", res.Combined.P99)
	}
}

func TestFig7Cases(t *testing.T) {
	eval, err := sti.NewEvaluator(DefaultOptions().Reach)
	if err != nil {
		t.Fatal(err)
	}
	res := Fig7(eval)
	if len(res) != 4 {
		t.Fatalf("cases = %d", len(res))
	}
	for _, c := range res {
		if c.KeySTI <= 0 {
			t.Errorf("%s key actor STI = %v, want > 0", c.Name, c.KeySTI)
		}
		if math.IsNaN(c.Combined) {
			t.Errorf("%s combined NaN", c.Name)
		}
	}
}

// The full mitigation pipeline: Table III + IV + Fig. 5 + roundabout. This
// is the most expensive integration test in the repository.
func TestMitigationPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("full mitigation pipeline")
	}
	opt := tinyOptions()
	opt.TrainEpisodes = 40 // enough for the policies to stop degenerating
	suites, err := BuildSuites(opt)
	if err != nil {
		t.Fatal(err)
	}

	ev := mustTrace(t, suites, opt)
	t3, err := TableIII(ev)
	if err != nil {
		t.Fatal(err)
	}
	if len(t3.Typologies) != 3 {
		t.Fatalf("typologies = %v", t3.Typologies)
	}
	for _, name := range []string{AgentLBCiPrism, AgentLBCNoSTI, AgentLBCACA, AgentRIPiPrism} {
		if len(t3.Rows[name]) != 3 {
			t.Fatalf("agent %q rows = %d", name, len(t3.Rows[name]))
		}
	}
	for i, ty := range t3.Typologies {
		ip := t3.Rows[AgentLBCiPrism][i]
		aca := t3.Rows[AgentLBCACA][i]
		t.Logf("%-14s iPrism CA%%=%.0f TCR%%=%.1f | ACA CA%%=%.0f TCR%%=%.1f (TAS %d)",
			ty, ip.CAPct, ip.TCRPct, aca.CAPct, aca.TCRPct, ip.TAS)
	}
	t.Logf("rear-end: CA %d/%d (%.0f%%)", t3.RearEnd.CA, t3.RearEnd.TAS, t3.RearEnd.CAPct)

	// Shape assertions (Table III): iPrism substantially beats ACA on the
	// ghost cut-in (side threat), and prevents a nontrivial share of
	// rear-end accidents via acceleration.
	ghostIdx := indexOf(t3.Typologies, scenario.GhostCutIn)
	if t3.Rows[AgentLBCiPrism][ghostIdx].CAPct <= t3.Rows[AgentLBCACA][ghostIdx].CAPct {
		t.Errorf("ghost cut-in: iPrism CA%% %.0f should beat ACA %.0f",
			t3.Rows[AgentLBCiPrism][ghostIdx].CAPct, t3.Rows[AgentLBCACA][ghostIdx].CAPct)
	}
	if t3.RearEnd.TAS > 0 && t3.RearEnd.CAPct <= 0 {
		t.Error("rear-end: acceleration-capable SMC should prevent some accidents")
	}

	// Table IV: activation timing exists for mitigating agents.
	t4 := TableIV(t3)
	if len(t4) != 3 {
		t.Fatalf("table IV rows = %d", len(t4))
	}
	for _, row := range t4 {
		t.Logf("%-14s iPrism %.2fs ACA %.2fs lead %.2fs", row.Typology, row.IPrism, row.ACA, row.LeadTime)
	}

	// Fig. 5: iPrism's mean STI over ghost cut-in must end lower than the
	// bare baseline's (the mitigation flattens the risk curve). It and the
	// roundabout reuse Table III's ghost cut-in controller.
	ctrl := t3.Controllers[scenario.GhostCutIn]
	if ctrl == nil {
		t.Fatal("Table III trained no ghost cut-in controller")
	}
	f5, err := Fig5(ev, ctrl, 8)
	if err != nil {
		t.Fatal(err)
	}
	if f5.LBC.Len() == 0 || f5.IPrism.Len() == 0 {
		t.Fatal("Fig5 series empty")
	}
	lbcPeak, iprismPeak := peak(f5.LBC.Mean), peak(f5.IPrism.Mean)
	t.Logf("Fig5 STI peaks: LBC %.2f iPrism %.2f", lbcPeak, iprismPeak)
	if iprismPeak >= lbcPeak {
		t.Errorf("iPrism STI peak %.2f should be below LBC peak %.2f", iprismPeak, lbcPeak)
	}

	// Roundabout generalisation: transferred SMC reduces ring collisions.
	rb, err := Roundabout(ctrl, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("roundabout: pilot %d/%d collisions, +iPrism %d/%d (mitigated %.0f%%)",
		rb.RIPCollisions, rb.Instances, rb.IPrismCollisions, rb.Instances, rb.Mitigated*100)
	if rb.RIPCollisions == 0 {
		t.Error("ring pilot should collide in the roundabout cut-in typology")
	}
	if rb.IPrismCollisions > rb.RIPCollisions {
		t.Errorf("iPrism made the roundabout worse: %d > %d", rb.IPrismCollisions, rb.RIPCollisions)
	}
}

func indexOf(tys []scenario.Typology, ty scenario.Typology) int {
	for i, t := range tys {
		if t == ty {
			return i
		}
	}
	return -1
}

func peak(xs []float64) float64 {
	best := 0.0
	for _, x := range xs {
		if x > best {
			best = x
		}
	}
	return best
}

// §V-B takeaway (a): combined STI is statistically different between safe
// and accident populations.
func TestSTISeparation(t *testing.T) {
	if testing.Short() {
		t.Skip("separation integration")
	}
	opt := tinyOptions()
	opt.ScenariosPerTypology = 24
	suites, err := BuildSuites(opt)
	if err != nil {
		t.Fatal(err)
	}
	seps := STISeparation(mustTrace(t, suites, opt))
	if len(seps) == 0 {
		t.Fatal("no typology had both safe and accident populations")
	}
	for _, s := range seps {
		t.Logf("%-14s accident peaks n=%d safe peaks n=%d  t=%.1f (df %.0f)  d=%.1f",
			s.Typology, len(s.AccidentPeaks), len(s.SafePeaks), s.WelchT, s.DF, s.CohenD)
		if s.WelchT <= 2 {
			t.Errorf("%v: accident STI peaks not separated from safe (t=%v)", s.Typology, s.WelchT)
		}
		if s.CohenD <= 0.8 {
			t.Errorf("%v: effect size %v too small", s.Typology, s.CohenD)
		}
	}
}

// §IV-B1: safety criticality varies with hyperparameter values — e.g. on
// the ghost cut-in, closer and slower cut-ins crash more.
func TestSensitivityGhostCutIn(t *testing.T) {
	if testing.Short() {
		t.Skip("sensitivity sweep")
	}
	opt := tinyOptions()
	opt.ScenariosPerTypology = 60
	suites, err := BuildSuites(opt)
	if err != nil {
		t.Fatal(err)
	}
	ghost, _ := findSuite(suites, scenario.GhostCutIn)
	rows, err := Sensitivity(ghost)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]float64{}
	for _, r := range rows {
		t.Logf("%-22s corr %.2f", r.Hyperparameter, r.Correlation)
		byName[r.Hyperparameter] = r.Correlation
	}
	// Slower post-cut speeds and nearer cut-in points increase crashes.
	if byName["speed_lane_change"] >= 0 {
		t.Errorf("cut speed correlation = %v, want negative (slower is deadlier)",
			byName["speed_lane_change"])
	}
	if byName["distance_lane_change"] >= 0 {
		t.Errorf("cut distance correlation = %v, want negative (closer is deadlier)",
			byName["distance_lane_change"])
	}
}

func TestSensitivityNeedsScenarios(t *testing.T) {
	if _, err := Sensitivity(Suite{}); err == nil {
		t.Error("tiny suite accepted")
	}
}
