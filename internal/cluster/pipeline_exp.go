package cluster

import (
	"cmp"
	"fmt"
	"strings"
	"time"

	"repro/internal/chariots"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// PipelineOptions configures one Chariots pipeline run (Tables 2–5,
// Figure 9): the number of machines per stage and either a duration
// (steady-state throughput tables) or a fixed record count (the Figure 9
// drain study).
type PipelineOptions struct {
	Profile  Profile
	Clients  int
	Batchers int
	Filters  int
	// Queues is also the maintainer count (the paper's tables pair them).
	Queues int

	// Duration runs the generators for a fixed time (tables), while
	// Records pushes a fixed record count and waits for the pipeline to
	// drain (Figure 9). Exactly one must be set.
	Duration time.Duration
	Records  uint64

	// SampleWindow, when > 0, records a per-machine throughput
	// timeseries at this granularity (Figure 9).
	SampleWindow time.Duration

	// FlushThreshold overrides the batcher flush threshold (default
	// 512) — the §6.2 batching ablation.
	FlushThreshold int

	// ChannelDepth overrides the inter-stage buffer depth in records
	// (default 1<<15). The Figure 9 drain study uses a deep buffer so
	// the filter-stage backlog (and the end-of-run egress spike) is
	// visible, as in the paper's 40-second drain tail.
	ChannelDepth int
}

// MachineRow is one row of a Table 2–5-style report.
type MachineRow struct {
	Name   string
	PerSec float64
}

// PipelineResult is one pipeline run's measurements.
type PipelineResult struct {
	Rows       []MachineRow
	Applied    uint64
	Elapsed    time.Duration
	Samples    map[string][]metrics.Sample
	Bottleneck string
}

// RunPipeline executes one pipeline experiment.
func RunPipeline(opts PipelineOptions) (*PipelineResult, error) {
	if opts.Clients < 1 {
		return nil, fmt.Errorf("cluster: need >= 1 client")
	}
	if (opts.Duration == 0) == (opts.Records == 0) {
		return nil, fmt.Errorf("cluster: set exactly one of Duration or Records")
	}
	// Buffer and batch sizes scale with the rates so buffering *time*
	// (records ÷ rate) matches the unscaled system: backpressure and
	// drain-tail shapes depend on it.
	scale := opts.Profile.ScaleFactor()
	dc, err := chariots.New(chariots.Config{
		NumDCs:         1,
		Batchers:       opts.Batchers,
		Filters:        opts.Filters,
		Queues:         opts.Queues,
		Maintainers:    opts.Queues,
		PlacementBatch: 1000,
		FlushThreshold: scaledSize(cmp.Or(opts.FlushThreshold, 512), scale, 8),
		Rates:          opts.Profile.stageRates(),
		FilterNICRate:  opts.Profile.down(opts.Profile.FilterNICRate),
		ChannelDepth:   scaledSize(cmp.Or(opts.ChannelDepth, 1<<15), scale, 512),
	})
	if err != nil {
		return nil, err
	}
	dc.Start()
	defer dc.Stop()

	// Client machines: closed-loop generators bounded by the client
	// machine's own capacity and by pipeline backpressure.
	gens := make([]*workload.ClosedLoopGen, opts.Clients)
	for i := range gens {
		gens[i] = &workload.ClosedLoopGen{
			RatePerSec: opts.Profile.down(opts.Profile.ClientRate),
			BatchSize:  scaledSize(256, scale, 8),
		}
	}

	// Every machine's throughput counter, clients first.
	type machine struct {
		name  string
		count *metrics.Counter
	}
	var machines []machine
	for i, g := range gens {
		machines = append(machines, machine{clientName(i, opts.Clients), &g.Sent})
	}
	for _, m := range dc.Machines() {
		machines = append(machines, machine{m.Name, &m.Processed})
	}

	// Samplers (Figure 9): one per machine.
	samplers := make(map[string]*metrics.ThroughputSampler)
	if opts.SampleWindow > 0 {
		for _, m := range machines {
			s := metrics.NewThroughputSampler(m.count, opts.SampleWindow)
			s.Start()
			defer s.Stop()
			samplers[m.name] = s
		}
	}

	stop := make(chan struct{})
	done := make(chan struct{}, opts.Clients)
	quota := opts.Records / uint64(opts.Clients)
	watch := metrics.NewStopwatch()
	for _, g := range gens {
		go func() {
			defer func() { done <- struct{}{} }()
			genStop, sent := stop, uint64(0)
			if quota > 0 {
				genStop = make(chan struct{}) // fixed record count: closed by the sink once the quota is in
			}
			g.Run(func(recs []*core.Record) {
				dc.Inject(recs)
				if sent += uint64(len(recs)); quota > 0 && sent >= quota {
					close(genStop)
				}
			}, genStop)
		}()
	}

	base := make(map[string]uint64)
	if opts.Duration > 0 {
		// The warmup excludes the buffer-fill transient: counters are
		// snapshotted after it and rates use only the steady window.
		time.Sleep(max(opts.Duration/3, 200*time.Millisecond))
		for _, m := range machines {
			base[m.name] = m.count.Value()
		}
		watch = metrics.NewStopwatch()
		time.Sleep(opts.Duration)
		close(stop)
		for range gens {
			<-done
		}
	} else {
		for range gens {
			<-done
		}
		// Wait for the pipeline to drain every injected record.
		var sentTotal uint64
		for _, g := range gens {
			sentTotal += g.Sent.Value()
		}
		deadline := time.Now().Add(2 * time.Minute)
		for dc.AppliedCount() < sentTotal {
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("cluster: pipeline drained %d of %d records",
					dc.AppliedCount(), sentTotal)
			}
			time.Sleep(time.Millisecond)
		}
	}
	watch.Stop()
	for _, s := range samplers {
		s.Stop() // sampling ends with the measurement; the deferred Stop covers error returns
	}

	res := &PipelineResult{
		Applied: dc.AppliedCount(),
		Elapsed: watch.Elapsed(),
	}
	for _, m := range machines {
		n := m.count.Value() - base[m.name]
		res.Rows = append(res.Rows, MachineRow{Name: m.name, PerSec: float64(n) / watch.Elapsed().Seconds() * scale})
	}
	// The bottleneck is the non-client stage with the lowest cumulative
	// throughput (stage capacity is the sum of its machines).
	minRate := -1.0
	for stage, rate := range res.StageTotals() {
		if stage == "Client" || rate == 0 {
			continue
		}
		if minRate < 0 || rate < minRate {
			minRate = rate
			res.Bottleneck = stage
		}
	}
	if len(samplers) > 0 {
		res.Samples = make(map[string][]metrics.Sample, len(samplers))
		for name, s := range samplers {
			samples := s.Samples()
			for i := range samples {
				samples[i].Rate *= scale
			}
			res.Samples[name] = samples
		}
	}
	return res, nil
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

func clientName(i, total int) string {
	if total == 1 {
		return "Client"
	}
	return fmt.Sprintf("Client %d", i+1)
}

// Table renders the result the way the paper prints Tables 2–5.
func (r *PipelineResult) Table() string {
	tb := &metrics.Table{Header: []string{"Machine", "Throughput (Kappends/s)"}}
	for _, row := range r.Rows {
		tb.AddRow(row.Name, fmt.Sprintf("%.1f", row.PerSec/1000))
	}
	return tb.String()
}

// QueueSpike summarizes a sampled drain run (Figure 9): the queue stage's
// mean rate while batcher 1 was still transmitting, and its peak rate
// after the batcher stopped.
func (r *PipelineResult) QueueSpike() (steady, spike float64) {
	var batcherEnd time.Duration
	for _, s := range r.Samples["Batcher 1"] {
		if s.Count > 0 {
			batcherEnd = s.Elapsed
		}
	}
	var sum float64
	var n int
	for _, s := range r.Samples["Queue"] {
		if s.Elapsed <= batcherEnd {
			sum += s.Rate
			n++
		} else {
			spike = max(spike, s.Rate)
		}
	}
	if n > 0 {
		steady = sum / float64(n)
	}
	return steady, spike
}

// StageTotals sums per-stage throughput across machines of the same kind.
func (r *PipelineResult) StageTotals() map[string]float64 {
	totals := make(map[string]float64)
	for _, row := range r.Rows {
		totals[stageOf(row.Name)] += row.PerSec
	}
	return totals
}

func stageOf(name string) string {
	stage, _, _ := strings.Cut(name, " ")
	return stage
}
