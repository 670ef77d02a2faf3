package experiments

import (
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/vehicle"
)

func TestMeanSDString(t *testing.T) {
	cell := MeanSD{Mean: 3.694, SD: 0.125}
	if got := cell.String(); got != "3.69 (0.12)" {
		t.Errorf("String = %q", got)
	}
}

func TestTableIVEmpty(t *testing.T) {
	rows := TableIV(TableIIIResult{})
	if len(rows) != 0 {
		t.Errorf("rows = %v", rows)
	}
}

func TestFindSuite(t *testing.T) {
	suites := []Suite{{Typology: scenario.GhostCutIn}, {Typology: scenario.RearEnd}}
	if s, ok := findSuite(suites, scenario.RearEnd); !ok || s.Typology != scenario.RearEnd {
		t.Error("findSuite missed an existing suite")
	}
	if _, ok := findSuite(suites, scenario.LeadCutIn); ok {
		t.Error("findSuite invented a suite")
	}
}

func TestSuiteAccidents(t *testing.T) {
	s := Suite{Outcomes: []sim.Outcome{
		{Collision: true}, {Collision: false}, {Collision: true},
	}}
	got := s.Accidents()
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("Accidents = %v", got)
	}
}

func TestTableIEmptySuites(t *testing.T) {
	if rows := TableI(nil); len(rows) != 0 {
		t.Errorf("rows = %v", rows)
	}
}

func TestContainsHelper(t *testing.T) {
	if !contains([]int{1, 3, 5}, 3) || contains([]int{1, 3, 5}, 2) {
		t.Error("contains misbehaves")
	}
}

func TestDemonstratedChoiceMapping(t *testing.T) {
	tests := []struct {
		accel float64
		want  int
	}{
		{-4, 1},  // brake → longitudinal 0 → 0*3 + keep(1)
		{0, 4},   // coast → longitudinal 1 → 1*3 + keep(1)
		{0.5, 4}, // mild accel still counts as "keep speed"
		{3, 7},   // accelerate → longitudinal 2 → 2*3 + keep(1)
	}
	for _, tt := range tests {
		tw := &traceWorld{trace: []sim.StepRecord{{
			EgoControl: vehicle.Control{Accel: tt.accel},
		}}}
		if got := demonstratedChoice(tw, 0); got != tt.want {
			t.Errorf("demonstratedChoice(accel=%v) = %d, want %d", tt.accel, got, tt.want)
		}
	}
}

func TestSeverityMissingSuite(t *testing.T) {
	if _, err := Severity(&Evidence{}, TableIIIResult{}); err == nil {
		t.Error("missing suite accepted")
	}
}

func TestRoundaboutNeedsController(t *testing.T) {
	opt := tinyOptions()
	opt.ScenariosPerTypology = 2
	if _, err := Roundabout(nil, opt); err == nil {
		t.Error("nil controller accepted")
	}
}

// At one instance per typology the front-accident validity filter can
// leave a suite empty: Fig. 4 skips it and Fig. 5 refuses an empty ghost
// cut-in suite instead of indexing its first scenario.
func TestFiguresOnEmptySuites(t *testing.T) {
	if testing.Short() {
		t.Skip("suite integration")
	}
	opt := tinyOptions()
	opt.ScenariosPerTypology = 1
	suites, err := BuildSuites(opt)
	if err != nil {
		t.Fatal(err)
	}
	nonEmpty := 0
	for _, s := range suites {
		if len(s.Scenarios) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty == len(suites) {
		t.Fatal("no suite is empty at one instance per typology; the test no longer covers the empty case")
	}
	series := Fig4(mustTrace(t, suites, opt))
	if len(series) != 4*nonEmpty {
		t.Errorf("Fig4 series = %d, want 4 metrics for each of %d non-empty suites", len(series), nonEmpty)
	}
	empty := &Evidence{Suites: []Suite{{Typology: scenario.GhostCutIn}}, opt: opt}
	if _, err := Fig5(empty, nil, 0); err == nil {
		t.Error("Fig5 accepted an empty ghost cut-in suite")
	}
}
