package cluster

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/chariots"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// stages is a Chariots pipeline deployment (Tables 2–5, Figure 9): machines
// per stage, with queues also the maintainer count (the paper's tables
// pair them).
type stages struct{ clients, batchers, filters, queues int }

// machine is one simulated machine's throughput counter.
type machine struct {
	name  string
	count *metrics.Counter
}

// machineRate is one machine's measured throughput, in paper units.
type machineRate struct {
	name   string
	perSec float64
}

// startPipeline starts one datacenter with s's machines per stage behind
// p's capacity limiters, and the closed-loop generators of its client
// machines (bounded by the client machine's own capacity and by pipeline
// backpressure). machines lists every machine's counter, clients first.
// flush (the batcher flush threshold) and depth (the inter-stage buffer, in
// records) are paper-unit sizes: buffer and batch sizes scale with the
// rates so buffering *time* (records ÷ rate) matches the unscaled system —
// backpressure and drain-tail shapes depend on it.
func startPipeline(p profile, s stages, flush, depth int) (*chariots.Datacenter, []*workload.ClosedLoopGen, []machine, error) {
	scale := p.scaleFactor()
	dc, err := chariots.New(chariots.Config{
		NumDCs:         1,
		Batchers:       s.batchers,
		Filters:        s.filters,
		Queues:         s.queues,
		Maintainers:    s.queues,
		PlacementBatch: 1000,
		FlushThreshold: scaledSize(flush, scale, 8),
		Rates:          p.stageRates(),
		FilterNICRate:  p.down(p.FilterNICRate),
		ChannelDepth:   scaledSize(depth, scale, 512),
	})
	if err != nil {
		return nil, nil, nil, err
	}
	dc.Start()
	gens := make([]*workload.ClosedLoopGen, s.clients)
	var machines []machine
	for i := range gens {
		gens[i] = &workload.ClosedLoopGen{RatePerSec: p.down(p.ClientRate), BatchSize: scaledSize(256, scale, 8)}
		name := "Client"
		if s.clients > 1 {
			name = fmt.Sprintf("Client %d", i+1)
		}
		machines = append(machines, machine{name, &gens[i].Sent})
	}
	for _, m := range dc.Machines() {
		machines = append(machines, machine{m.Name, &m.Processed})
	}
	return dc, gens, machines, nil
}

// pipelineRates runs s's pipeline at steady state and returns every
// machine's throughput over the window d, clients first. flush is the
// batcher flush threshold (the paper's is 512).
func pipelineRates(p profile, s stages, d time.Duration, flush int) ([]machineRate, error) {
	dc, gens, machines, err := startPipeline(p, s, flush, 1<<15)
	if err != nil {
		return nil, err
	}
	defer dc.Stop()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, g := range gens {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.Run(dc.Inject, stop)
		}()
	}
	// The warmup excludes the buffer-fill transient: counters are
	// snapshotted after it and rates use only the steady window.
	time.Sleep(max(d/3, 200*time.Millisecond))
	base := make([]uint64, len(machines))
	for i, m := range machines {
		base[i] = m.count.Value()
	}
	watch := metrics.NewStopwatch()
	time.Sleep(d)
	close(stop)
	wg.Wait()
	watch.Stop()
	rates := make([]machineRate, len(machines))
	for i, m := range machines {
		rates[i] = machineRate{m.name, float64(m.count.Value()-base[i]) / watch.Elapsed().Seconds() * p.scaleFactor()}
	}
	return rates, nil
}

// scaledSize divides a record-count-denominated size by the simulation
// scale, bounded below by min.
func scaledSize(v int, scale float64, min int) int {
	out := int(float64(v) / scale)
	if out < min {
		out = min
	}
	return out
}

// stageOf names a machine's stage: "Batcher 2" is a "Batcher".
func stageOf(name string) string {
	stage, _, _ := strings.Cut(name, " ")
	return stage
}

// stageTotals sums per-stage throughput across machines of the same kind.
func stageTotals(rates []machineRate) map[string]float64 {
	totals := make(map[string]float64)
	for _, r := range rates {
		totals[stageOf(r.name)] += r.perSec
	}
	return totals
}

// table is the row of one of Tables 2–5: s's pipeline on the private-cloud
// profile over d, printed the way the paper prints the tables, with the
// bottleneck — the non-client stage with the lowest cumulative throughput
// (stage capacity is the sum of its machines).
func (s stages) table(d time.Duration, rep *Report) error {
	rates, err := pipelineRates(privateCloud(), s, d, 512)
	if err != nil {
		return err
	}
	tb := &metrics.Table{Header: []string{"Machine", "Throughput (Kappends/s)"}}
	for _, r := range rates {
		tb.AddRow(r.name, fmt.Sprintf("%.1f", r.perSec/1000))
	}
	rep.Printf("%s", tb)
	totals := stageTotals(rates)
	bottleneck, minRate := "", -1.0
	for stage, rate := range totals {
		if stage != "Client" && rate > 0 && (minRate < 0 || rate < minRate) {
			bottleneck, minRate = stage, rate
		}
	}
	rep.Printf("bottleneck stage: %s\n", bottleneck)
	rep.Metric("client-appends/s", totals["Client"])
	rep.Metric("bottleneck-appends/s", totals[bottleneck])
	return nil
}

// drainPipeline is the Figure 9 run: the Table 4 configuration pushes a
// fixed record count (paper units) and waits for the pipeline to drain
// it, sampling every machine's throughput at window granularity. Deep
// buffering makes the drain tail visible: the batchers finish absorbing
// early while the filter's inbox holds the backlog, and once their
// transmissions end the filter's whole NIC serves egress — the paper's
// abrupt queue increase.
func drainPipeline(records float64, window time.Duration) (samples map[string][]metrics.Sample, applied uint64, elapsed time.Duration, err error) {
	p := privateCloud()
	dc, gens, machines, err := startPipeline(p, stages{2, 2, 1, 1}, 512, 1<<21)
	if err != nil {
		return nil, 0, 0, err
	}
	defer dc.Stop()
	samplers := make(map[string]*metrics.ThroughputSampler)
	for _, m := range machines {
		s := metrics.NewThroughputSampler(m.count, window)
		s.Start()
		defer s.Stop()
		samplers[m.name] = s
	}

	// The record count scales with the simulation so the drain tail spans
	// the same wall-clock shape on any host.
	quota := uint64(records/p.scaleFactor()) / uint64(len(gens))
	watch := metrics.NewStopwatch()
	var wg sync.WaitGroup
	for _, g := range gens {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stop, sent := make(chan struct{}), uint64(0)
			g.Run(func(recs []*core.Record) {
				dc.Inject(recs)
				if sent += uint64(len(recs)); sent >= quota {
					close(stop)
				}
			}, stop)
		}()
	}
	wg.Wait()
	var sentTotal uint64
	for _, g := range gens {
		sentTotal += g.Sent.Value()
	}
	deadline := time.Now().Add(2 * time.Minute)
	for dc.AppliedCount() < sentTotal {
		if time.Now().After(deadline) {
			return nil, 0, 0, fmt.Errorf("cluster: pipeline drained %d of %d records", dc.AppliedCount(), sentTotal)
		}
		time.Sleep(time.Millisecond)
	}
	watch.Stop()

	samples = make(map[string][]metrics.Sample, len(samplers))
	for name, s := range samplers {
		s.Stop() // sampling ends with the measurement; the deferred Stop covers error returns
		got := s.Samples()
		for i := range got {
			got[i].Rate *= p.scaleFactor()
		}
		samples[name] = got
	}
	return samples, dc.AppliedCount(), watch.Elapsed(), nil
}

// fig9 prints the Figure 9 timeseries of a 600K-record drain (a fixed
// record count, so d does not size it) and the queue's steady rate while
// batcher 1 was still transmitting against its peak rate after.
func fig9(_ time.Duration, rep *Report) error {
	const window = 250 * time.Millisecond
	samples, applied, elapsed, err := drainPipeline(600_000, window)
	if err != nil {
		return err
	}
	names := []string{"Client 1", "Batcher 1", "Queue"}
	tb := &metrics.Table{Header: append([]string{"t (s)"}, names...)}
	rows := 0
	for _, name := range names {
		rows = max(rows, len(samples[name]))
	}
	for i := 0; i < rows; i++ {
		row := []string{fmt.Sprintf("%.2f", float64(i+1)*window.Seconds())}
		for _, name := range names {
			if s := samples[name]; i < len(s) {
				row = append(row, kilo(s[i].Rate))
			} else {
				row = append(row, "-")
			}
		}
		tb.AddRow(row...)
	}
	rep.Printf("%s", tb)
	rep.Printf("total records: %d drained in %v\n", applied, elapsed.Round(10*time.Millisecond))

	var batcherEnd time.Duration
	for _, s := range samples["Batcher 1"] {
		if s.Count > 0 {
			batcherEnd = s.Elapsed
		}
	}
	var sum, spike float64
	var n int
	for _, s := range samples["Queue"] {
		if s.Elapsed <= batcherEnd {
			sum += s.Rate
			n++
		} else {
			spike = max(spike, s.Rate)
		}
	}
	rep.Metric("queue-steady-appends/s", sum/float64(max(n, 1)))
	rep.Metric("queue-after-spike-appends/s", spike)
	return nil
}
