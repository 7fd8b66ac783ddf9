package cluster

// Overload experiment: the same 2×-saturating open-loop offered load is
// driven into a datacenter whose maintainer stage is the bottleneck, once
// with admission control on (a small pipeline credit bound and the shed
// ingress policy) and once with it off (the credit gate in counting-only
// mode — the seed's behaviour, where ingress queues everything the stage
// channels can hold). The comparison behind the acceptance bars: with
// admission on, both the records in flight inside the pipeline and the
// latency of an admitted append stay bounded; with it off, the pipeline
// fills every buffer and an append entering it waits behind all of them.

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/chariots"
	"repro/internal/core"
	"repro/internal/flstore"
	"repro/internal/scale"
	"repro/internal/workload"
)

const (
	// overloadMaintainerRate is the bottleneck stage's capacity
	// (records/second); the open-loop generator offers overloadFactor×
	// that in overloadRecordSize-byte records.
	overloadMaintainerRate = 20_000
	overloadFactor         = 2
	overloadRecordSize     = 128
	// overloadCredits is the admission arm's pipeline credit bound (records).
	overloadCredits = 2048
)

// OverloadArm is one measured arm of the comparison.
type OverloadArm struct {
	Admission bool `json:"admission"`
	// Offered/Accepted/Shed count the open-loop generator's records.
	Offered  uint64 `json:"offered"`
	Accepted uint64 `json:"accepted"`
	Shed     uint64 `json:"shed"`
	// CreditHighWater is the most records the pipeline held between
	// ingress and apply at any point.
	CreditHighWater int `json:"credit_high_water"`
	// Probe latencies are measured from each probe's intended start on a
	// fixed schedule to its AppendAck — shed rejections retry first and
	// their pacing sleeps accrue to the same probe's latency
	// (coordinated-omission-safe; ProbeSheds counts the rejections).
	ProbeCount int     `json:"probe_count"`
	ProbeSheds uint64  `json:"probe_sheds"`
	ProbeP50Ms float64 `json:"probe_p50_ms"`
	ProbeP99Ms float64 `json:"probe_p99_ms"`
	// Accept latencies are the open-loop generator's offered-vs-accepted
	// measurement: intended offer time per the fixed schedule to the
	// batch's acceptance at ingress. With admission off and the stage
	// buffers full, ingress queues behind the saturated pipeline and this
	// grows without bound; with it on, batches are accepted or shed
	// promptly.
	AcceptP50Ms float64 `json:"accept_p50_ms"`
	AcceptP99Ms float64 `json:"accept_p99_ms"`
	// AppliedPerSec is the log's achieved apply throughput.
	AppliedPerSec float64 `json:"applied_per_sec"`
}

// OverloadResult is the two-arm comparison plus the derived ratios the
// acceptance bars are stated over.
type OverloadResult struct {
	MaintainerRate float64     `json:"maintainer_rate"`
	OfferedRate    float64     `json:"offered_rate"`
	Credits        int         `json:"credits"`
	On             OverloadArm `json:"admission_on"`
	Off            OverloadArm `json:"admission_off"`
	// HighWaterRatio is Off/On in-flight high water (bounding evidence).
	HighWaterRatio float64 `json:"high_water_ratio"`
	// P99Ratio is Off/On probe p99 (latency-bounding evidence).
	P99Ratio float64 `json:"p99_ratio"`
}

// runOverloadArm builds one single-DC pipeline with the maintainer stage
// capped at overloadMaintainerRate, saturates it at overloadFactor× with an
// open-loop generator for window plus a quarter-window warmup, and probes
// admitted-append latency open-loop over the window.
func runOverloadArm(window time.Duration, admission bool) (OverloadArm, error) {
	arm := OverloadArm{Admission: admission}
	cfg := chariots.Config{
		NumDCs: 1,
		Rates:  chariots.StageRates{Maintainer: overloadMaintainerRate},
	}
	if admission {
		cfg.PipelineCredits = overloadCredits
		cfg.ShedOnSaturation = true
	} else {
		cfg.PipelineCredits = -1 // counting-only: the seed's unbounded ingress
	}
	dc, err := chariots.New(cfg)
	if err != nil {
		return arm, err
	}
	dc.Start()
	defer dc.Stop()

	// Open-loop offered load at overloadFactor× the bottleneck capacity,
	// running beside the probe below.
	var acceptHist scale.Hist
	genDone := make(chan *workload.OpenLoopGen, 1)
	go func() {
		gens, _ := openLoop(1, overloadMaintainerRate*overloadFactor, overloadRecordSize, window+window/4, func(int) workload.TimedSink {
			return func(intended time.Time, recs []*core.Record) int {
				if err := dc.TryInject(recs); err != nil {
					return 0 // shed (or, admission off, never: credits unbounded)
				}
				// Accepted: offered-vs-accepted latency against the
				// schedule's intended offer time. With admission off
				// TryInject blocks on the pipeline's full buffers; that wait
				// — and the wait of every batch scheduled behind it — is
				// exactly the latency a re-anchoring generator would forgive.
				acceptHist.Record(time.Since(intended))
				return len(recs)
			}
		})
		genDone <- gens[0]
	}()

	// Let the pipeline reach its saturated steady state before probing.
	time.Sleep(window / 4)

	// Open-loop probe: 50 concurrent sessions offer appends on a fixed
	// aggregate 200/s schedule, and every probe's latency runs from its
	// intended start to the AppendAck — shed-retry pacing and queueing
	// behind a slow earlier probe on the same session both accrue to the
	// probe they delayed (coordinated-omission-safe).
	var probeSheds atomic.Uint64
	probe := scale.NewEngine(scale.Config{
		Sessions:     50,
		TargetPerSec: 200,
		Duration:     window,
		Seed:         1,
		RetryFor:     30 * time.Second,
		Op: func(int, time.Time) error {
			_, err := dc.Append([]byte("probe"), nil)
			return err
		},
		Retry: func(err error) (time.Duration, bool) {
			if !flstore.IsRetryable(err) {
				return 0, false
			}
			probeSheds.Add(1)
			return flstore.RetryAfter(err), true
		},
	})
	probeLoad, err := loadStats(probe.Run())
	gen := <-genDone
	if err != nil {
		return arm, err
	}
	if probeLoad.Errors > 0 {
		return arm, fmt.Errorf("cluster: %d probe appends failed", probeLoad.Errors)
	}

	stats := dc.CreditStats()
	arm.Offered = gen.Offered.Value()
	arm.Accepted = gen.Accepted.Value()
	arm.Shed = stats.Sheds
	arm.CreditHighWater = stats.MaxInUse
	arm.ProbeCount = int(probeLoad.Completed)
	arm.ProbeSheds = probeSheds.Load()
	arm.ProbeP50Ms, arm.ProbeP99Ms = probeLoad.P50Ms, probeLoad.P99Ms
	arm.AcceptP50Ms, arm.AcceptP99Ms = ms(acceptHist.Quantile(0.50)), ms(acceptHist.Quantile(0.99))
	arm.AppliedPerSec = float64(dc.AppliedCount()) / (window + window/4).Seconds()
	// Drain what the pipeline still holds so Stop does not race the
	// forwarders mid-batch (and the off arm's backlog empties).
	dc.Quiesce(50*time.Millisecond, 30*time.Second)
	return arm, nil
}

// overload runs both arms, each measured over d/2, derives the comparison
// ratios and writes the BENCH_overload.json payload.
func overload(d time.Duration, rep *Report) error {
	res := OverloadResult{
		MaintainerRate: overloadMaintainerRate,
		OfferedRate:    overloadMaintainerRate * overloadFactor,
		Credits:        overloadCredits,
	}
	var err error
	if res.On, err = runOverloadArm(d/2, true); err != nil {
		return fmt.Errorf("cluster: admission-on arm: %w", err)
	}
	if res.Off, err = runOverloadArm(d/2, false); err != nil {
		return fmt.Errorf("cluster: admission-off arm: %w", err)
	}
	if res.On.CreditHighWater > 0 {
		res.HighWaterRatio = float64(res.Off.CreditHighWater) / float64(res.On.CreditHighWater)
	}
	if res.On.ProbeP99Ms > 0 {
		res.P99Ratio = res.Off.ProbeP99Ms / res.On.ProbeP99Ms
	}
	rep.Data = res
	for _, arm := range []OverloadArm{res.On, res.Off} {
		mode := "off"
		if arm.Admission {
			mode = "on "
		}
		rep.Printf("admission %s  offered %7d accepted %7d shed %7d | in-flight high water %6d | probe p50 %7.1fms p99 %7.1fms (%d probes, %d shed) | accept p50 %7.1fms p99 %7.1fms | applied %7.0f recs/s\n",
			mode, arm.Offered, arm.Accepted, arm.Shed, arm.CreditHighWater,
			arm.ProbeP50Ms, arm.ProbeP99Ms, arm.ProbeCount, arm.ProbeSheds,
			arm.AcceptP50Ms, arm.AcceptP99Ms, arm.AppliedPerSec)
	}
	rep.Printf("high-water ratio (off/on) %.1fx | p99 ratio (off/on) %.1fx\n", res.HighWaterRatio, res.P99Ratio)
	rep.Metric("high-water-ratio-x", res.HighWaterRatio)
	rep.Metric("probe-p99-ratio-x", res.P99Ratio)
	rep.Bar("admission-on in-flight high water vs the credit bound (records)", float64(res.On.CreditHighWater), "<=", float64(res.Credits))
	rep.Bar("in-flight high-water ratio off/on", res.HighWaterRatio, ">=", 2)
	rep.Bar("admission-on probe p99 (ms)", res.On.ProbeP99Ms, "<=", 500)
	rep.Bar("probe p99 ratio off/on", res.P99Ratio, ">=", 2)
	return nil
}
