package cluster

import (
	"fmt"
	"time"

	"repro/internal/chariots"
	"repro/internal/core"
	"repro/internal/flstore"
	"repro/internal/metrics"
)

// RunGossipAblation measures how the gossip interval (§5.4) affects the
// reader-visible head of the log while appends run at a fixed rate: the
// mean lag (in records) between the true head and what a maintainer's
// gossiped view exposes, plus the achieved throughput (which gossip must
// not affect — the fixed-size-gossip claim).
func RunGossipAblation(profile Profile, maintainers int, targetPerClient float64, interval, dur time.Duration) (meanLag uint64, throughput float64, err error) {
	// Written only by the sampler, which runFLStore joins before returning.
	var lagSamples, lagTotal uint64
	res, err := runFLStore(FLStoreOptions{
		Profile: profile, Maintainers: maintainers, TargetPerClient: targetPerClient, Duration: dur,
	}, interval, func(rig *Rig) {
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
		meanLag = uint64(float64(lagTotal) / float64(lagSamples) * profile.ScaleFactor())
	}
	return meanLag, res.AchievedTotal, nil
}

// RunTokenCarryAblation measures the apply latency of dependency-blocked
// records under the two deferred-record policies of §6.2: carried with the
// token (reconsidered at every queue) or parked at the first queue that
// saw them (reconsidered once per token revolution).
func RunTokenCarryAblation(carry bool, dur time.Duration) (time.Duration, error) {
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
	for i := 0; i < max(20, int(dur/(5*time.Millisecond))); i++ {
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

// RunFlushLatency measures the mean latency of lone, acknowledged appends
// under a given batcher flush threshold. Hand-off is work-paced: a batcher
// hands its buffers on the moment its inbox runs dry, so the threshold is
// only a ceiling on batches that form under backlog and a lone record's
// latency must not depend on it — what the §6.2 batching trade-off costs
// when nothing waits out a timer.
func RunFlushLatency(thresh int) (time.Duration, error) {
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
