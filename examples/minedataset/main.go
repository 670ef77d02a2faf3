// Mine safety-critical scenes from a driving corpus with STI — the §V-D
// workflow: generate the synthetic real-world corpus, score every sampled
// instant, and report the riskiest moments and their dominant actors.
//
// Run with:
//
//	go run ./examples/minedataset [-logs 30]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"sort"

	"repro/internal/dataset"
	"repro/iprism"
)

type riskyMoment struct {
	log, step int
	combined  float64
	keyActor  int
	keySTI    float64
}

func main() {
	var (
		logs = flag.Int("logs", 30, "number of synthetic drive logs")
		topK = flag.Int("top", 5, "how many risky moments to report")
		seed = flag.Int64("seed", 5, "corpus seed")
	)
	flag.Parse()

	cfg := dataset.DefaultCorpusConfig()
	cfg.Logs = *logs
	cfg.Seed = *seed
	corpus, err := dataset.GenerateCorpus(cfg)
	if err != nil {
		log.Fatal(err)
	}
	eval := iprism.NewEvaluator(iprism.DefaultReachConfig())

	var moments []riskyMoment
	var all []float64
	for li, l := range corpus {
		horizon := int(3.0 / l.Dt)
		for t := 0; t < l.Steps()-horizon-1; t += 10 {
			res, _ := eval.Score(context.Background(), iprism.Query{Map: l.Map, Ego: l.Ego[t], Actors: l.ActorsAt(t), Trajs: l.FutureTrajectories(t)}, nil)
			all = append(all, res.Combined)
			idx, v := res.MostThreatening()
			moments = append(moments, riskyMoment{
				log: li, step: t, combined: res.Combined, keyActor: idx, keySTI: v,
			})
		}
	}
	sort.Slice(moments, func(i, j int) bool { return moments[i].combined > moments[j].combined })

	zero := 0
	for _, v := range all {
		if v == 0 {
			zero++
		}
	}
	fmt.Printf("scored %d instants across %d logs; %.0f%% carry zero combined risk\n\n",
		len(all), len(corpus), 100*float64(zero)/float64(len(all)))

	fmt.Printf("top %d risky moments:\n", *topK)
	fmt.Printf("%6s %6s %10s %10s %10s\n", "log", "t(s)", "combined", "key actor", "key STI")
	for i := 0; i < *topK && i < len(moments); i++ {
		m := moments[i]
		l := corpus[m.log]
		kind := "-"
		if m.keyActor >= 0 {
			kind = l.Meta[m.keyActor].Kind.String()
		}
		fmt.Printf("%6d %6.1f %10.2f %10s %10.2f\n",
			m.log, float64(m.step)*l.Dt, m.combined, kind, m.keySTI)
	}
	fmt.Println("\nlike the paper's Argoverse study, the distribution is long-tailed:")
	fmt.Println("most driving is risk-free and the rare risky scenes are minable by STI.")
}
