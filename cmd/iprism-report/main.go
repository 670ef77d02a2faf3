// Command iprism-report reproduces the paper's entire evaluation in one
// run — Tables I–IV, Figs. 4–7, the roundabout study and the extension
// analyses — and writes it as a markdown report. It is the one generator
// of the paper's evidence:
//
//	iprism-report -n 40 -episodes 40 -o out   # out/report.md, fig4.csv, fig5.csv, suite.json
//	iprism-report -o -                        # the markdown alone, on stdout
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
	"repro/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], generate); err != nil {
		fmt.Fprintln(os.Stderr, "iprism-report:", err)
		os.Exit(1)
	}
}

// run parses the flags and generates the report with gen. Its error is the
// first of the report's and the journal close's failures.
func run(args []string, gen func(out string, opt experiments.Options) error) (err error) {
	fs := flag.NewFlagSet("iprism-report", flag.ExitOnError)
	var (
		n        = fs.Int("n", 60, "scenario instances per typology (paper: 1000)")
		episodes = fs.Int("episodes", 60, "SMC training episodes per typology (paper: 100)")
		seed     = fs.Int64("seed", 2024, "generation and training seed")
		out      = fs.String("o", "report", "output directory for report.md, fig4.csv, fig5.csv and suite.json ('-' prints the markdown alone on stdout)")
		telAddr  = fs.String("telemetry", "", "serve expvar and pprof on this address (e.g. localhost:6060)")
		journal  = fs.String("journal", "", "write a JSONL telemetry journal to this path")
	)
	fs.Parse(args)

	telCleanup, err := telemetry.Setup(*telAddr, *journal)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := telCleanup(); err == nil && cerr != nil {
			err = fmt.Errorf("telemetry: %w", cerr)
		}
	}()

	opt := experiments.DefaultOptions()
	opt.ScenariosPerTypology = *n
	opt.Seed = *seed
	opt.TrainEpisodes = *episodes
	return gen(*out, opt)
}

// generate writes the report into the directory out, or the markdown
// alone to stdout when out is "-".
func generate(out string, opt experiments.Options) error {
	if out == "-" {
		return experiments.Report(os.Stdout, opt, time.Now)
	}
	if err := experiments.WriteReport(out, opt, time.Now); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	return nil
}
