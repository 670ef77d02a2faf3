package experiments

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/scenario"
)

// Report runs the complete evaluation — every table, figure and extension
// analysis — and writes the markdown report to w. The clock parameter
// stamps the report header (pass time.Now from main).
func Report(w io.Writer, opt Options, clock func() time.Time) error {
	_, err := report(w, opt, clock)
	return err
}

// WriteReport runs the complete evaluation into dir: report.md, plus
// fig4.csv and fig5.csv (the series behind those figures) and suite.json
// (every generated scenario instance, the paper's published suite).
func WriteReport(dir string, opt Options, clock func() time.Time) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "report.md"))
	if err != nil {
		return err
	}
	art, err := report(f, opt, clock)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := writeFile(filepath.Join(dir, "fig4.csv"), func(w io.Writer) error { return WriteFig4CSV(w, art.fig4) }); err != nil {
		return err
	}
	if err := writeFile(filepath.Join(dir, "fig5.csv"), func(w io.Writer) error { return WriteFig5CSV(w, art.fig5) }); err != nil {
		return err
	}
	var all []scenario.Scenario
	for _, s := range art.suites {
		all = append(all, s.Scenarios...)
	}
	return scenario.SaveSuite(all, filepath.Join(dir, "suite.json"))
}

// artefacts are the computed data report writes beside the markdown.
type artefacts struct {
	suites []Suite
	fig4   []Fig4Series
	fig5   Fig5Result
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// report writes the markdown through a buffer whose Flush reports the
// first failed write, so a report that could not be written fails the run.
func report(out io.Writer, opt Options, clock func() time.Time) (artefacts, error) {
	var art artefacts
	if err := opt.Validate(); err != nil {
		return art, err
	}
	w := bufio.NewWriter(out)
	started := clock()
	fmt.Fprintf(w, "# iPrism reproduction report\n\n")
	fmt.Fprintf(w, "Generated %s · %d scenarios/typology · %d training episodes · seed %d\n\n",
		started.Format(time.RFC3339), opt.ScenariosPerTypology, opt.TrainEpisodes, opt.Seed)
	fmt.Fprintf(w, "Built with %s\n\n", provenance())

	fmt.Fprintf(w, "## Table I — scenario suites and baseline accidents\n\n")
	suites, err := BuildSuites(opt)
	if err != nil {
		return art, err
	}
	art.suites = suites
	fmt.Fprintf(w, "| Typology | Instances | Hyperparameters | Baseline accidents | Paper (n=1000) |\n|---|---|---|---|---|\n")
	paperT1 := map[scenario.Typology]string{
		scenario.GhostCutIn: "519", scenario.LeadCutIn: "170",
		scenario.LeadSlowdown: "118", scenario.FrontAccident: "0 (of 810)",
		scenario.RearEnd: "770",
	}
	for _, r := range TableI(suites) {
		fmt.Fprintf(w, "| %s | %d | %s | %d | %s |\n",
			r.Typology, r.Instances, strings.Join(r.Hyperparameters, ", "), r.Accidents, paperT1[r.Typology])
	}

	// Every section below reads this one pass over the recorded episodes.
	ev, err := Trace(suites, opt)
	if err != nil {
		return art, err
	}

	fmt.Fprintf(w, "\n## Fig. 4 — risk characterisation (final-step accident-population mean)\n\n")
	art.fig4 = Fig4(ev)
	writeFig4Finals(w, suites, art.fig4)

	fmt.Fprintf(w, "\n## Table II — LTFMA (seconds)\n\n")
	t2 := TableII(ev)
	fmt.Fprintf(w, "| Metric |")
	for _, ty := range t2.Typologies {
		fmt.Fprintf(w, " %s |", ty)
	}
	fmt.Fprintf(w, " Average | Paper avg |\n|---|")
	for range t2.Typologies {
		fmt.Fprintf(w, "---|")
	}
	fmt.Fprintf(w, "---|---|\n")
	paperT2 := map[string]float64{
		"TTC": 0.83, "Dist. CIPA": 1.38, "PKL-All": 0.75, "PKL-Holdout": 1.19, "STI": 3.69,
	}
	for _, name := range MetricNames {
		fmt.Fprintf(w, "| %s |", name)
		for _, cell := range t2.LTFMA[name] {
			fmt.Fprintf(w, " %s |", cell)
		}
		fmt.Fprintf(w, " %.2f | %.2f |\n", t2.Average[name], paperT2[name])
	}

	fmt.Fprintf(w, "\n## Tables III & IV — mitigation efficacy and timing\n\n")
	t3, err := TableIII(ev)
	if err != nil {
		return art, err
	}
	fmt.Fprintf(w, "| Agent |")
	for _, ty := range t3.Typologies {
		fmt.Fprintf(w, " %s CA%%/TCR%% (CA#/TAS) |", ty)
	}
	fmt.Fprintf(w, "\n|---|")
	for range t3.Typologies {
		fmt.Fprintf(w, "---|")
	}
	fmt.Fprintf(w, "\n")
	for _, name := range agentNames {
		fmt.Fprintf(w, "| %s |", name)
		for i, r := range t3.Rows[name] {
			if t3.Controllers[t3.Typologies[i]] == nil {
				fmt.Fprintf(w, " — |")
				continue
			}
			fmt.Fprintf(w, " %.0f / %.1f (%d/%d) |", r.CAPct, r.TCRPct, r.CA, r.TAS)
		}
		fmt.Fprintf(w, "\n")
	}
	sep := "\n" // a blank line ends the table before the first skip line
	for _, ty := range t3.Typologies {
		if t3.Controllers[ty] == nil {
			fmt.Fprint(w, sep)
			sep = ""
			writeSkipped(w, ty)
		}
	}
	if t3.Controllers[scenario.RearEnd] == nil {
		fmt.Fprintf(w, "\nRear-end extension (acceleration): — (paper 37%%)\n")
		writeSkipped(w, scenario.RearEnd)
	} else {
		fmt.Fprintf(w, "\nRear-end extension (acceleration): CA %d/%d = %.0f%% (paper 37%%)\n",
			t3.RearEnd.CA, t3.RearEnd.TAS, t3.RearEnd.CAPct)
	}
	fmt.Fprintf(w, "\n| Typology | iPrism first action (s) | ACA first action (s) | Lead time (s) |\n|---|---|---|---|\n")
	for _, row := range TableIV(t3) {
		if t3.Controllers[row.Typology] == nil {
			fmt.Fprintf(w, "| %s | — | — | — |\n", row.Typology)
			continue
		}
		fmt.Fprintf(w, "| %s | %.2f | %.2f | %.2f |\n", row.Typology, row.IPrism, row.ACA, row.LeadTime)
	}

	fmt.Fprintf(w, "\n## Fig. 5 — ghost cut-in STI with and without iPrism\n\n")
	ghost := t3.Controllers[scenario.GhostCutIn]
	if ghost == nil {
		writeSkipped(w, scenario.GhostCutIn)
	} else {
		if art.fig5, err = Fig5(ev, ghost, 12); err != nil {
			return art, err
		}
		fmt.Fprintf(w, "STI peak: LBC %.2f vs LBC+iPrism %.2f (paper: iPrism consistently lower)\n",
			seriesPeak(art.fig5.LBC.Mean), seriesPeak(art.fig5.IPrism.Mean))
	}

	fmt.Fprintf(w, "\n## Fig. 6 — real-world-corpus STI distribution\n\n")
	f6, err := Fig6(dataset.DefaultCorpusConfig(), opt)
	if err != nil {
		return art, err
	}
	fmt.Fprintf(w, "| | p50 | p75 | p90 | p99 |\n|---|---|---|---|---|\n")
	fmt.Fprintf(w, "| actor STI | %.3f | %.3f | %.3f | %.3f |\n", f6.Actor.P50, f6.Actor.P75, f6.Actor.P90, f6.Actor.P99)
	fmt.Fprintf(w, "| combined STI | %.3f | %.3f | %.3f | %.3f |\n", f6.Combined.P50, f6.Combined.P75, f6.Combined.P90, f6.Combined.P99)
	fmt.Fprintf(w, "\nActor STI exactly zero: %.0f%% of %d samples (paper: ~90%%).\n", f6.ActorZeroFraction*100, f6.Samples)

	fmt.Fprintf(w, "\n## Fig. 7 — case studies\n\n")
	fmt.Fprintf(w, "| Case | Key-actor STI | Combined | Per-actor STI |\n|---|---|---|---|\n")
	for _, c := range Fig7(ev.eval) {
		fmt.Fprintf(w, "| %s | %.2f | %.2f | %s |\n", c.Name, c.KeySTI, c.Combined, formatSTIs(c.PerActor))
	}

	fmt.Fprintf(w, "\n## Roundabout generalisation\n\n")
	if ghost == nil {
		writeSkipped(w, scenario.GhostCutIn)
	} else {
		rb, err := Roundabout(ghost, opt)
		if err != nil {
			return art, err
		}
		fmt.Fprintf(w, "Ring pilot: %d/%d collisions; with transferred iPrism: %d/%d (%.1f%% of pilot accidents mitigated; paper: 18.6%%).\n",
			rb.RIPCollisions, rb.Instances, rb.IPrismCollisions, rb.Instances, rb.Mitigated*100)
	}

	fmt.Fprintf(w, "\n## STI separation — safe vs accident (§V-B (a))\n\n")
	fmt.Fprintf(w, "Per-episode mean combined STI; typologies without two of each population are omitted.\n\n")
	fmt.Fprintf(w, "| Typology | Accident n | Safe n | Welch t | df | Cohen's d |\n|---|---|---|---|---|---|\n")
	for _, s := range STISeparation(ev) {
		fmt.Fprintf(w, "| %s | %d | %d | %.2f | %.0f | %.2f |\n",
			s.Typology, len(s.AccidentPeaks), len(s.SafePeaks), s.WelchT, s.DF, s.CohenD)
	}

	fmt.Fprintf(w, "\n## Action-space ablation — rear-end (paper: braking useless, accel saves 37%%)\n\n")
	if t3.Controllers[scenario.RearEnd] == nil {
		writeSkipped(w, scenario.RearEnd)
	} else {
		sets, err := ActionAblation(ev, t3)
		if err != nil {
			return art, err
		}
		fmt.Fprintf(w, "| Action set | CA | TAS | CA%% |\n|---|---|---|---|\n")
		for _, s := range sets {
			fmt.Fprintf(w, "| %s | %d | %d | %.0f |\n", s.Name, s.CA, s.TAS, s.CAPct)
		}
	}

	fmt.Fprintf(w, "\n## Impact severity — rear-end\n\n")
	if t3.Controllers[scenario.RearEnd] == nil {
		writeSkipped(w, scenario.RearEnd)
	} else {
		sev, err := Severity(ev, t3)
		if err != nil {
			return art, err
		}
		fmt.Fprintf(w, "| Agent | Collisions | Mean impact (m/s) | p90 impact (m/s) |\n|---|---|---|---|\n")
		fmt.Fprintf(w, "| LBC | %d | %.1f | %.1f |\n", sev.BaselineCollisions, sev.BaselineMeanImpact, sev.BaselineP90Impact)
		fmt.Fprintf(w, "| LBC+iPrism | %d | %.1f | %.1f |\n", sev.MitigatedCollisions, sev.MitigatedMeanImpact, sev.MitigatedP90Impact)
	}

	fmt.Fprintf(w, "\n## Hyperparameter sensitivity — correlation with the crash outcome (§IV-B1)\n\n")
	fmt.Fprintf(w, "| Typology | Hyperparameter correlations, strongest first |\n|---|---|\n")
	for _, suite := range suites {
		// Front accident has no accidents to correlate with.
		if suite.Typology == scenario.FrontAccident {
			continue
		}
		rows, err := Sensitivity(suite)
		if err != nil {
			return art, err
		}
		cells := make([]string, len(rows))
		for i, r := range rows {
			cells[i] = fmt.Sprintf("%s %.2f", r.Hyperparameter, r.Correlation)
		}
		fmt.Fprintf(w, "| %s | %s |\n", suite.Typology, strings.Join(cells, ", "))
	}

	fmt.Fprintf(w, "\n## Reach ablation — control sampling (footnote 5)\n\n")
	fmt.Fprintf(w, "| Sampling | Empty-road tube volume (m²) |\n|---|---|\n")
	for _, r := range ReachAblation(opt) {
		fmt.Fprintf(w, "| %s | %.1f |\n", r.Name, r.Volume)
	}

	fmt.Fprintf(w, "\n---\nTotal wall-clock: %s\n", clock().Sub(started).Round(time.Second))
	return art, w.Flush()
}

// writeSkipped is the line a section prints in place of a result that
// needs ty's trained controller when ty had no baseline accident.
func writeSkipped(w io.Writer, ty scenario.Typology) {
	fmt.Fprintf(w, "Skipped %s: no baseline accident to train its SMC on.\n", ty)
}

// writeFig4Finals tabulates, per typology and plotted metric, the
// accident population's mean at its last step: STI should approach 1 at
// the accident. A typology without accidents shows a dash.
func writeFig4Finals(w io.Writer, suites []Suite, series []Fig4Series) {
	names := []string{"STI", "PKL", "TTC", "CIPA"}
	final := map[scenario.Typology]map[string]string{}
	for _, s := range series {
		if s.Accident.Len() == 0 {
			continue
		}
		if final[s.Typology] == nil {
			final[s.Typology] = map[string]string{}
		}
		final[s.Typology][s.Metric] = fmt.Sprintf("%.2f", s.Accident.Mean[s.Accident.Len()-1])
	}
	fmt.Fprintf(w, "| Typology | %s |\n|---|%s\n", strings.Join(names, " | "), strings.Repeat("---|", len(names)))
	for _, suite := range suites {
		fmt.Fprintf(w, "| %s |", suite.Typology)
		for _, m := range names {
			cell, ok := final[suite.Typology][m]
			if !ok {
				cell = "—"
			}
			fmt.Fprintf(w, " %s |", cell)
		}
		fmt.Fprintf(w, "\n")
	}
}

// provenance names the toolchain, platform, parallelism and source
// revision the report was produced with.
func provenance() string {
	rev, modified := "unknown", false
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
	}
	if modified {
		rev += " (modified)"
	}
	return fmt.Sprintf("%s · %s/%s · GOMAXPROCS %d · revision %s",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0), rev)
}

func formatSTIs(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.2f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func seriesPeak(xs []float64) float64 {
	peak := 0.0
	for _, x := range xs {
		if x > peak {
			peak = x
		}
	}
	return peak
}
