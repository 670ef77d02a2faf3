package render

import (
	"context"
	"strings"
	"testing"

	"repro/internal/actor"
	"repro/internal/geom"
	"repro/internal/reach"
	"repro/internal/roadmap"
	"repro/internal/sti"
	"repro/internal/vehicle"
)

func testScene(t *testing.T) Scene {
	t.Helper()
	road := roadmap.MustStraightRoad(2, 3.5, -20, 80)
	ego := vehicle.State{Pos: geom.V(0, 1.75), Speed: 9}
	actors := []*actor.Actor{
		actor.NewVehicle(1, vehicle.State{Pos: geom.V(14, 1.75), Speed: 2}),
		actor.NewVehicle(2, vehicle.State{Pos: geom.V(5, 5.25), Speed: 9}),
	}
	eval := sti.MustNewEvaluator(reach.DefaultConfig())
	risk, _ := eval.Score(context.Background(), sti.Query{Map: road, Ego: ego, Actors: actors}, nil)

	cfg := reach.DefaultConfig()
	cfg.RecordPoints = true
	trajs := actor.PredictAll(actors, cfg.NumSlices(), cfg.SliceDt)
	obs := reach.BuildObstacles(actors, trajs, cfg)
	tube := reach.Compute(road, obs, ego, cfg, nil)

	return Scene{
		Map:    road,
		Ego:    ego,
		Actors: actors,
		Risk:   risk,
		Tube:   &tube,
		Title:  `ego & "friends" <scene>`,
	}
}

func TestSVGStructure(t *testing.T) {
	svg := SVG(testScene(t), Options{})
	for _, want := range []string{
		"<svg", "</svg>", // document
		"#b9b9b9",             // road surface
		"stroke-dasharray",    // lane markings
		"#f5c518",             // ego
		"fill-opacity",        // tube cells
		"combined STI",        // annotation
		"&quot;friends&quot;", // escaping
		"&lt;scene&gt;",       // escaping
		`font-size="10"`,      // per-actor STI labels
	} {
		if !strings.Contains(svg, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	if strings.Count(svg, "<polygon") != 3 { // ego + 2 actors
		t.Errorf("polygon count = %d, want 3", strings.Count(svg, "<polygon"))
	}
}

func TestSVGTubeRecorded(t *testing.T) {
	s := testScene(t)
	if len(s.Tube.Points) == 0 {
		t.Fatal("tube points not recorded")
	}
	svg := SVG(s, Options{})
	if strings.Count(svg, "fill-opacity") < len(s.Tube.Points) {
		t.Errorf("tube cells not all drawn: %d < %d",
			strings.Count(svg, "fill-opacity"), len(s.Tube.Points))
	}
}

func TestSVGRingRoad(t *testing.T) {
	ring, err := roadmap.NewRingRoad(geom.V(0, 0), 18, 27)
	if err != nil {
		t.Fatal(err)
	}
	pos, heading := ring.PoseAt(24, 0)
	svg := SVG(Scene{
		Map: ring,
		Ego: vehicle.State{Pos: pos, Heading: heading, Speed: 8},
	}, Options{Scale: 4})
	if strings.Count(svg, "<circle") != 2 {
		t.Errorf("ring should draw two circles, got %d", strings.Count(svg, "<circle"))
	}
}

func TestSVGWithoutOptionalParts(t *testing.T) {
	road := roadmap.MustStraightRoad(1, 3.5, 0, 50)
	svg := SVG(Scene{Map: road, Ego: vehicle.State{Pos: geom.V(10, 1.75)}}, Options{})
	if strings.Contains(svg, "combined STI") {
		t.Error("zero-risk scene should not be annotated")
	}
	if strings.Contains(svg, "<text") {
		t.Error("no title and no risk: no text expected")
	}
}

func TestRiskColorGradient(t *testing.T) {
	low := riskColor(0)
	mid := riskColor(0.5)
	high := riskColor(1)
	if low == high || low == mid {
		t.Errorf("gradient degenerate: %s %s %s", low, mid, high)
	}
	if high != "#ff0040" {
		t.Errorf("full risk colour = %s, want #ff0040", high)
	}
	if !strings.HasPrefix(low, "#00c8") {
		t.Errorf("zero risk colour = %s, want green", low)
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.scale() != 6 || o.margin() != 5 {
		t.Errorf("defaults = %v %v", o.scale(), o.margin())
	}
	o = Options{Scale: 2, Margin: 1}
	if o.scale() != 2 || o.margin() != 1 {
		t.Errorf("overrides = %v %v", o.scale(), o.margin())
	}
}

func TestSVGWindowClipsExtent(t *testing.T) {
	road := roadmap.MustStraightRoad(2, 3.5, -500, 500)
	full := SVG(Scene{Map: road, Ego: vehicle.State{Pos: geom.V(0, 1.75)}}, Options{})
	clipped := SVG(Scene{Map: road, Ego: vehicle.State{Pos: geom.V(0, 1.75)}}, Options{Window: 50})
	if !strings.Contains(full, `width="6060"`) { // (1000+2*5) m * 6 px
		t.Errorf("full width unexpected: %s", full[:120])
	}
	if !strings.Contains(clipped, `width="660"`) { // (50+50+2*5) m * 6 px
		t.Errorf("clipped width unexpected: %s", clipped[:120])
	}
}
