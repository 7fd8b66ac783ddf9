package cluster

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/scale"
	"repro/internal/workload"
)

// openLoop runs n open-loop generators side by side for d, generator i
// offering perGen records/second of recordSize bytes (0 = the paper's 512)
// to sink(i), and returns them (for their Offered/Accepted counters) with
// the wall-clock time the run took. It is the one place experiments
// construct a generator.
func openLoop(n int, perGen float64, recordSize int, d time.Duration, sink func(i int) workload.TimedSink) ([]*workload.OpenLoopGen, time.Duration) {
	gens := make([]*workload.OpenLoopGen, n)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range gens {
		gens[i] = &workload.OpenLoopGen{TargetPerSec: perGen, RecordSize: recordSize, BatchSize: 64}
		wg.Add(1)
		go func() {
			defer wg.Done()
			gens[i].RunTimed(sink(i), d)
		}()
	}
	wg.Wait()
	return gens, time.Since(start)
}

// LoadStats is what every scale.Engine-driven arm reports of its load,
// flattened into the arm's JSON.
type LoadStats struct {
	Offered        uint64  `json:"offered"`
	Completed      uint64  `json:"completed"`
	Errors         uint64  `json:"errors"`
	AchievedPerSec float64 `json:"achieved_per_sec"`
	P50Ms          float64 `json:"p50_ms"`
	P99Ms          float64 `json:"p99_ms"`
}

// loadStats turns one engine run into its reported block, refusing a run
// whose ledger does not account for every offered arrival.
func loadStats(st scale.Stats) (LoadStats, error) {
	if got := st.Completed + st.ShedServer + st.ShedClient + st.Errors; got != st.Offered {
		return LoadStats{}, fmt.Errorf("cluster: load ledger violated: offered %d != accounted %d", st.Offered, got)
	}
	ls := LoadStats{
		Offered: st.Offered, Completed: st.Completed, Errors: st.Errors,
		P50Ms: ms(st.Hist.Quantile(0.50)), P99Ms: ms(st.Hist.Quantile(0.99)),
	}
	if st.Elapsed > 0 {
		ls.AchievedPerSec = float64(st.Completed) / st.Elapsed.Seconds()
	}
	return ls, nil
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
