package experiments

import (
	"encoding/csv"
	"io"
	"strconv"
)

// WriteFig4CSV writes the Fig. 4 series as CSV, one row per series point:
// for each series its safe population first, then its accident population.
// The csv.Writer keeps its first write error, which Error reports after
// Flush, so the per-row errors need no check.
func WriteFig4CSV(w io.Writer, series []Fig4Series) error {
	cw := csv.NewWriter(w)
	cw.Write([]string{"typology", "metric", "population", "t", "mean", "sd", "n"})
	for _, s := range series {
		for _, pop := range []struct {
			name string
			mean []float64
			sd   []float64
			n    []int
		}{
			{"safe", s.Safe.Mean, s.Safe.SD, s.Safe.N},
			{"accident", s.Accident.Mean, s.Accident.SD, s.Accident.N},
		} {
			for i := range pop.mean {
				cw.Write([]string{
					s.Typology.String(), s.Metric, pop.name,
					csvFloat(float64(i) * s.Dt), csvFloat(pop.mean[i]), csvFloat(pop.sd[i]),
					strconv.Itoa(pop.n[i]),
				})
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteFig5CSV writes the Fig. 5 series as CSV, one row per time step; a
// series shorter than the other leaves its cells empty.
func WriteFig5CSV(w io.Writer, f5 Fig5Result) error {
	cw := csv.NewWriter(w)
	cw.Write([]string{"t", "sti_lbc_mean", "sti_lbc_sd", "sti_iprism_mean", "sti_iprism_sd"})
	n := max(f5.LBC.Len(), f5.IPrism.Len())
	for i := 0; i < n; i++ {
		cw.Write([]string{
			csvFloat(float64(i) * f5.Dt),
			csvAt(f5.LBC.Mean, i), csvAt(f5.LBC.SD, i),
			csvAt(f5.IPrism.Mean, i), csvAt(f5.IPrism.SD, i),
		})
	}
	cw.Flush()
	return cw.Error()
}

func csvFloat(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }

func csvAt(xs []float64, i int) string {
	if i >= len(xs) {
		return ""
	}
	return csvFloat(xs[i])
}
