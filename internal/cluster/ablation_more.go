package cluster

import (
	"fmt"
	"time"

	"repro/internal/chariots"
	"repro/internal/core"
	"repro/internal/flstore"
	"repro/internal/metrics"
)

// headLag measures how the gossip interval (§5.4) affects the
// reader-visible head of the log while 4 maintainers take appends at 100K
// per client for d: the mean lag (in paper-unit records) between the true
// head and what a maintainer's gossiped view exposes, plus the achieved
// throughput (which gossip must not affect — the fixed-size-gossip claim).
func headLag(interval, d time.Duration) (meanLag uint64, throughput float64, err error) {
	p := privateCloud()
	// Written only by the sampler, which appendRate joins before returning.
	var lagSamples, lagTotal uint64
	throughput, err = appendRate(p, RigSpec{Maintainers: 4, Gossip: interval}, 100_000, d, func(rig *Rig) {
		// True head from fresh next-unfilled values.
		next := make([]uint64, len(rig.Maintainers))
		for i, m := range rig.Maintainers {
			next[i], _ = m.NextUnfilled()
		}
		gossiped, _ := rig.Maintainers[0].Head()
		if trueHead := flstore.Head(next); trueHead > gossiped {
			lagTotal += trueHead - gossiped
		}
		lagSamples++
	})
	if err != nil {
		return 0, 0, err
	}
	if lagSamples > 0 {
		// Lag in records scales with the rate; convert to paper units.
		meanLag = uint64(float64(lagTotal) / float64(lagSamples) * p.scaleFactor())
	}
	return meanLag, throughput, nil
}

// gossipAblation sweeps the gossip interval, d per point.
func gossipAblation(d time.Duration, rep *Report) error {
	for _, interval := range []time.Duration{time.Millisecond, 10 * time.Millisecond, 50 * time.Millisecond} {
		lag, thr, err := headLag(interval, d)
		if err != nil {
			return err
		}
		rep.Printf("gossip %6s: throughput %s appends/s, mean head lag %d records\n", interval, kilo(thr), lag)
		rep.Metric(fmt.Sprintf("head-lag-records@%s", interval), float64(lag))
		rep.Metric(fmt.Sprintf("appends/s@%s", interval), thr)
	}
	return nil
}

// tokenCarryAblation measures the apply latency of dependency-blocked
// records under the two deferred-record policies of §6.2: carried with the
// token (reconsidered at every queue) or parked at the first queue that
// saw them (reconsidered once per token revolution). One blocked record
// per 5 ms of d, at least 20, per policy.
func tokenCarryAblation(d time.Duration, rep *Report) error {
	for _, carry := range []bool{true, false} {
		lat, err := deferredApplyLatency(carry, max(20, int(d/(5*time.Millisecond))))
		if err != nil {
			return err
		}
		rep.Printf("carry=%-5v: mean dependent-record apply latency %v\n", carry, lat.Round(time.Microsecond))
		rep.Metric(fmt.Sprintf("dependent-apply-us@carry=%v", carry), float64(lat.Microseconds()))
	}
	return nil
}

// deferredApplyLatency is the mean apply latency of n dependency-blocked
// records under one deferred-record policy.
func deferredApplyLatency(carry bool, n int) (time.Duration, error) {
	dc, err := chariots.New(chariots.Config{
		NumDCs:         2, // external records with dependencies
		Queues:         4,
		Maintainers:    2,
		PlacementBatch: 100,
		FlushThreshold: 4,
		CarryDeferred:  carry,
	})
	if err != nil {
		return 0, err
	}
	dc.Start()
	defer dc.Stop()

	// Inject remote-host records with a gap: TOId t+1 arrives before
	// TOId t, so it defers until t lands; measure the defer latency.
	hist := metrics.NewHistogram(0)
	toid := uint64(1)
	for i := 0; i < n; i++ {
		blocked := &core.Record{Host: 1, TOId: toid + 1, Body: []byte("dependent")}
		unblocker := &core.Record{Host: 1, TOId: toid, Body: []byte("first")}
		start := time.Now()
		dc.Inject([]*core.Record{blocked})
		time.Sleep(time.Millisecond) // let it reach a queue and defer
		dc.Inject([]*core.Record{unblocker})
		if !dc.WaitForTOId(1, toid+1, 5*time.Second) {
			return 0, fmt.Errorf("cluster: dependent record never applied")
		}
		hist.Observe(time.Since(start))
		toid += 2
	}
	return hist.Mean(), nil
}

// flushAblation sweeps the batcher flush threshold: pipeline throughput
// over d and a lone record's append latency at each. Hand-off is
// work-paced: a batcher hands its buffers on the moment its inbox runs
// dry, so the threshold is only a ceiling on batches that form under
// backlog and a lone record's latency must not depend on it — what the
// §6.2 batching trade-off costs when nothing waits out a timer.
func flushAblation(d time.Duration, rep *Report) error {
	var fastest, slowest time.Duration
	for _, thresh := range []int{1, 64, 512} {
		rates, err := pipelineRates(privateCloud(), stages{1, 1, 1, 1}, d, thresh)
		if err != nil {
			return err
		}
		lat, err := loneAppendLatency(thresh)
		if err != nil {
			return err
		}
		client := stageTotals(rates)["Client"]
		rep.Printf("flush %5d: client %s appends/s, lone-append latency %v\n", thresh, kilo(client), lat.Round(time.Microsecond))
		rep.Metric(fmt.Sprintf("client-appends/s@flush=%d", thresh), client)
		rep.Metric(fmt.Sprintf("lone-append-us@flush=%d", thresh), float64(lat.Microseconds()))
		if fastest == 0 || lat < fastest {
			fastest = lat
		}
		slowest = max(slowest, lat)
	}
	rep.Bar("lone-append latency, slowest / fastest threshold", float64(slowest)/float64(fastest), "<=", 2)
	return nil
}

// loneAppendLatency is the mean latency of 200 lone, acknowledged appends
// under a given batcher flush threshold.
func loneAppendLatency(thresh int) (time.Duration, error) {
	dc, err := chariots.New(chariots.Config{
		NumDCs:         1,
		FlushThreshold: thresh,
	})
	if err != nil {
		return 0, err
	}
	dc.Start()
	defer dc.Stop()
	hist := metrics.NewHistogram(0)
	for i := 0; i < 200; i++ {
		start := time.Now()
		if _, err := dc.Append([]byte("latency-probe"), nil); err != nil {
			return 0, err
		}
		hist.Observe(time.Since(start))
	}
	return hist.Mean(), nil
}
