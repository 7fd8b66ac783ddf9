// Benchmarks regenerating every table and figure of the paper's
// evaluation (§7), the ablations DESIGN.md calls out and the extension
// experiments: one sub-benchmark per entry of cluster.Experiments, the same
// table `go run ./cmd/repro` prints in full. Each reports the entry's
// headline metrics via b.ReportMetric, so
//
//	go test -run '^$' -bench 'Experiments/fig7' -benchtime 1x
//
// prints one experiment's reproduced numbers.
//
// The measurement window here is kept short (an experiment re-runs per
// b.N iteration); EXPERIMENTS.md records the full-length runs.
package repro_test

import (
	"testing"
	"time"

	"repro/internal/cluster"
)

const benchWindow = 500 * time.Millisecond

func BenchmarkExperiments(b *testing.B) {
	for _, e := range cluster.Experiments {
		b.Run(e.Name, func(b *testing.B) {
			var rep *cluster.Report
			for i := 0; i < b.N; i++ {
				var err error
				if rep, err = e.Run(benchWindow); err != nil {
					b.Fatal(err)
				}
			}
			for _, m := range rep.Metrics {
				b.ReportMetric(m.Value, m.Name)
			}
			for _, bar := range rep.Bars {
				if err := bar.Err(); err != nil {
					b.Log(err) // bars are stated for repro's full window
				}
			}
		})
	}
}
