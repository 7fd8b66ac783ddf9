package cluster

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/chariots"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/replica"
	"repro/internal/trace"
)

// This file is the stage-latency attribution experiment behind
// `repro -exp tracelat` and `make trace-smoke`: it force-samples every
// operation, drives appends through the two deployments that together
// exercise the full record lifecycle, and checks that the recorded spans
// account for (attribute) at least 90% of the latency the client actually
// measured — the tracing layer's accuracy bar.
//
// Two legs are needed because the repo's deployments split the lifecycle:
//
//   - a replicated FLStore wired over RPC covers client.append → rpc.call
//     → maintainer admission/assign/store → store.write/fsync →
//     replica.ack (the measured, budgeted leg);
//   - one chariots datacenter covers dc.append → pipe.batch → pipe.filter
//     → pipe.queue → the embedded maintainers (the pipeline leg, asserted
//     for stage coverage).

// StageBudget is one row of the per-stage latency budget: how much of the
// covered end-to-end time was attributed to this stage.
type StageBudget struct {
	Stage   string  `json:"stage"`
	TotalNs int64   `json:"total_ns"`
	QueueNs int64   `json:"queue_ns,omitempty"`
	Share   float64 `json:"share"`
}

// TraceLatResult is one tracelat run.
type TraceLatResult struct {
	// Appends counts measured client appends on the FLStore leg;
	// MeasuredNs sums their client-observed wall-clock latency.
	Appends    int   `json:"appends"`
	MeasuredNs int64 `json:"measured_e2e_ns"`
	// CoveredNs is the span-attributed time across those appends' traces;
	// Coverage is CoveredNs/MeasuredNs — the ≥0.90 acceptance bar.
	CoveredNs int64   `json:"covered_ns"`
	Coverage  float64 `json:"coverage"`
	// Traces is how many complete append traces the budget aggregated.
	Traces int `json:"traces"`
	// Stages is the per-stage budget, largest share first.
	Stages []StageBudget `json:"stages"`
	// AppendStages / PipelineStages are the distinct stage names reached
	// by the FLStore append traces and the chariots pipeline traces — the
	// row's bars assert the lifecycle legs all appear.
	AppendStages   []string `json:"append_stages"`
	PipelineStages []string `json:"pipeline_stages"`
}

// traceLat runs the experiment against in-process deployments, measuring
// one client append per 5 ms of d (at least 100), and writes the
// BENCH_trace.json payload. It force-samples every operation for the
// duration of the run and restores the prior sampling rate (and clears the
// flight recorder) on return. The run fails if no append trace was
// recorded or the stage rows do not sum to the covered time.
func traceLat(d time.Duration, rep *Report) error {
	appends := max(100, int(d/(5*time.Millisecond)))
	var res TraceLatResult

	prev := trace.SamplingRate()
	rec := trace.Default()
	defer func() {
		trace.SetSampling(prev)
		rec.Reset()
	}()

	// --- FLStore leg: three maintainers, R=2, over local RPC. ---
	rig, err := NewRig(RigSpec{Maintainers: 3, Replication: 2, Round: 8, Ack: replica.AckMajority})
	if err != nil {
		return err
	}
	defer rig.Close()
	client := rig.Client

	// Warm up unsampled so lazy initialization stays out of the budget.
	trace.SetSampling(0)
	for i := 0; i < 16; i++ {
		if _, err := client.Append([]byte(fmt.Sprintf("warm-%d", i)), nil); err != nil {
			return fmt.Errorf("cluster: tracelat warmup: %w", err)
		}
	}
	trace.SetSampling(1)
	rec.Reset()

	// Measured appends are small batches built ahead of the timed loop, so
	// the client-side wall clock brackets the traced call as tightly as the
	// root span does.
	const batchLen = 4
	body := make([]byte, 512)
	batches := make([][]*core.Record, appends)
	for i := range batches {
		batch := make([]*core.Record, batchLen)
		for j := range batch {
			batch[j] = &core.Record{Body: body}
		}
		batches[i] = batch
	}

	var measured int64
	for i, batch := range batches {
		start := time.Now()
		if _, err := client.AppendBatch(batch); err != nil {
			return fmt.Errorf("cluster: tracelat append %d: %w", i, err)
		}
		measured += time.Since(start).Nanoseconds()
	}
	// Straggler replica acks may record just after the client returns.
	time.Sleep(20 * time.Millisecond)

	appendSpans := spansOfRootStage(rec.Snapshot(trace.Filter{}), "client.append")
	b := trace.ComputeBudget(appendSpans)
	res.Appends = appends
	res.MeasuredNs = measured
	res.CoveredNs = b.CoveredNs
	res.Traces = b.Traces
	res.Coverage = float64(b.CoveredNs) / float64(measured)
	res.Stages = budgetRows(b)
	res.AppendStages = stageSet(appendSpans)

	// --- Pipeline leg: one chariots datacenter. ---
	rec.Reset()
	dc, err := chariots.New(chariots.Config{
		NumDCs:         1,
		Batchers:       1,
		Filters:        1,
		Queues:         1,
		Maintainers:    2,
		Indexers:       1,
		PlacementBatch: 4,
	})
	if err != nil {
		return err
	}
	dc.Start()
	defer dc.Stop()

	for i := 0; i < max(appends/3, 20); i++ {
		if _, err := dc.Append([]byte(fmt.Sprintf("pl-%d", i)), nil); err != nil {
			return fmt.Errorf("cluster: tracelat pipeline append %d: %w", i, err)
		}
	}
	time.Sleep(20 * time.Millisecond)
	res.PipelineStages = stageSet(spansOfRootStage(rec.Snapshot(trace.Filter{}), "dc.append"))
	rep.Data = res

	rep.Printf("appends %d | mean e2e %v | traces %d | span coverage %.1f%% of measured latency (bar: >= 90%%)\n",
		res.Appends, time.Duration(res.MeasuredNs/int64(res.Appends)).Round(time.Microsecond), res.Traces, 100*res.Coverage)
	tb := &metrics.Table{Header: []string{"stage", "total", "queue", "share"}}
	var stageSum int64
	for _, row := range res.Stages {
		tb.AddRow(row.Stage,
			time.Duration(row.TotalNs).Round(time.Microsecond).String(),
			time.Duration(row.QueueNs).Round(time.Microsecond).String(),
			fmt.Sprintf("%.1f%%", 100*row.Share))
		stageSum += row.TotalNs
	}
	rep.Printf("%s", tb)
	rep.Printf("append stages traced: %s\n", strings.Join(res.AppendStages, ", "))
	rep.Printf("pipeline stages traced: %s\n", strings.Join(res.PipelineStages, ", "))
	rep.Metric("span-coverage", res.Coverage)
	rep.Bar("span coverage of measured append latency", res.Coverage, ">=", 0.90)
	rep.Bar("append trace reaches client.append, rpc.call, maint.assign, maint.store, replica.ack",
		b2f(hasStages(res.AppendStages, "client.append", "rpc.call", "maint.assign", "maint.store", "replica.ack")), ">=", 1)
	rep.Bar("pipeline trace reaches dc.append, pipe.batch, pipe.filter, pipe.queue, maint.ingest, maint.store",
		b2f(hasStages(res.PipelineStages, "dc.append", "pipe.batch", "pipe.filter", "pipe.queue", "maint.ingest", "maint.store")), ">=", 1)
	if res.Traces == 0 {
		return fmt.Errorf("cluster: tracelat recorded no append traces")
	}
	if stageSum != res.CoveredNs {
		return fmt.Errorf("cluster: tracelat stage rows sum to %d ns, covered = %d ns", stageSum, res.CoveredNs)
	}
	return nil
}

// hasStages reports whether every named stage appears in the set (a
// sorted stageSet result).
func hasStages(set []string, want ...string) bool {
	for _, w := range want {
		if !slices.Contains(set, w) {
			return false
		}
	}
	return true
}

// spansOfRootStage keeps only spans of traces containing a span of the
// given root stage — dropping unrelated traffic (gossip heartbeats,
// reads) and traces whose root was evicted from the ring.
func spansOfRootStage(spans []trace.Span, stage string) []trace.Span {
	keep := make(map[trace.TraceID]bool)
	for _, s := range spans {
		if s.Stage == stage {
			keep[s.Trace] = true
		}
	}
	var out []trace.Span
	for _, s := range spans {
		if keep[s.Trace] {
			out = append(out, s)
		}
	}
	return out
}

// stageSet returns the sorted distinct stage names in spans.
func stageSet(spans []trace.Span) []string {
	seen := make(map[string]bool)
	var out []string
	for _, s := range spans {
		if !seen[s.Stage] {
			seen[s.Stage] = true
			out = append(out, s.Stage)
		}
	}
	sort.Strings(out)
	return out
}

// budgetRows flattens a Budget into display rows, largest share first.
func budgetRows(b trace.Budget) []StageBudget {
	rows := make([]StageBudget, 0, len(b.StageNs))
	for stage, ns := range b.StageNs {
		row := StageBudget{Stage: stage, TotalNs: ns, QueueNs: b.QueueNs[stage]}
		if b.CoveredNs > 0 {
			row.Share = float64(ns) / float64(b.CoveredNs)
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].TotalNs != rows[j].TotalNs {
			return rows[i].TotalNs > rows[j].TotalNs
		}
		return rows[i].Stage < rows[j].Stage
	})
	return rows
}
