package cluster

import (
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/flstore"
	"repro/internal/replica"
	"repro/internal/scale"
	"repro/internal/storage"
)

// DurabilityOptions configures the durability-tier experiment: the
// group-commit fsync-collapse sweep (phase A) and the quorum-ack
// degraded-disk comparison (phase B). Disk cost is injected through a
// seeded faultinject controller — one named link per store's fsync path —
// so the experiment measures the durability protocols, not the host
// filesystem, and a run is reproducible by seed.
type DurabilityOptions struct {
	// Appenders are the concurrency points of the fsync sweep
	// (default 1, 8, 64).
	Appenders []int
	// PerAppenderPerSec is each session's offered arrival rate
	// (default 25/s).
	PerAppenderPerSec float64
	// Duration is the arrival-schedule horizon per arm (default 2s).
	Duration time.Duration
	// FsyncDelay is the injected cost of one healthy fsync (default 1ms).
	FsyncDelay time.Duration
	// SlowFactor multiplies FsyncDelay on the degraded member's disk in
	// phase B (default 20).
	SlowFactor int
	// Seed drives the arrival schedules and the fault schedule.
	Seed uint64
}

func (o *DurabilityOptions) defaults() {
	if len(o.Appenders) == 0 {
		o.Appenders = []int{1, 8, 64}
	}
	if o.PerAppenderPerSec <= 0 {
		o.PerAppenderPerSec = 25
	}
	if o.Duration <= 0 {
		o.Duration = 2 * time.Second
	}
	if o.FsyncDelay <= 0 {
		o.FsyncDelay = time.Millisecond
	}
	if o.SlowFactor <= 0 {
		o.SlowFactor = 20
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// FsyncArm is one point of the phase-A sweep: a fixed appender count
// driven open-loop against one segment store under one fsync policy.
type FsyncArm struct {
	Appenders      int     `json:"appenders"`
	Policy         string  `json:"policy"`
	Offered        uint64  `json:"offered"`
	Completed      uint64  `json:"completed"`
	Errors         uint64  `json:"errors"`
	OfferedPerSec  float64 `json:"offered_per_sec"`
	AchievedPerSec float64 `json:"achieved_per_sec"`
	P50Ms          float64 `json:"p50_ms"`
	P99Ms          float64 `json:"p99_ms"`
	MaxMs          float64 `json:"max_ms"`
	Fsyncs         uint64  `json:"fsyncs"`
	FsyncsPerOp    float64 `json:"fsyncs_per_op"`
}

// QuorumArm is one phase-B cluster run: a 3-member replica group with a
// given ack/fan-out mode and optionally one member's disk slowed.
type QuorumArm struct {
	Name           string  `json:"name"`
	Ack            string  `json:"ack"`
	QuorumFanout   bool    `json:"quorum_fanout"`
	SlowMember     int     `json:"slow_member"` // -1 = all disks healthy
	Offered        uint64  `json:"offered"`
	Completed      uint64  `json:"completed"`
	Errors         uint64  `json:"errors"`
	AchievedPerSec float64 `json:"achieved_per_sec"`
	P50Ms          float64 `json:"p50_ms"`
	P99Ms          float64 `json:"p99_ms"`
	// SlowDurableLag is how many of the range's positions the slow (or
	// last) member's local durable watermark trails the primary's at the
	// end of the run — the detached stragglers' catch-up debt.
	SlowDurableLag uint64 `json:"slow_durable_lag"`
}

// DurabilityResult is the BENCH_durability.json payload.
type DurabilityResult struct {
	FsyncArms []FsyncArm `json:"fsync_arms"`
	// GroupP99Ratio64 is group-commit p99 / per-batch-fsync p99 at the
	// largest appender count (the <= 0.5 acceptance bar).
	GroupP99Ratio64 float64     `json:"group_p99_ratio_64"`
	QuorumArms      []QuorumArm `json:"quorum_arms"`
	// QuorumSlowP99Ratio is slow-disk quorum p99 / healthy quorum p99
	// (the <= 2x acceptance bar).
	QuorumSlowP99Ratio float64 `json:"quorum_slow_p99_ratio"`
	// AllAckSlowP99Ratio is slow-disk wait-all p99 / healthy quorum p99 —
	// the degradation quorum fan-out avoids.
	AllAckSlowP99Ratio float64 `json:"all_ack_slow_p99_ratio"`
	FsyncDelayMs       float64 `json:"fsync_delay_ms"`
	SlowFactor         int     `json:"slow_factor"`
}

// diskHook returns an fsync hook that charges the named link's injected
// delay on every physical fsync — the experiment's model of disk cost,
// drawn from the controller's seeded per-link stream.
func diskHook(ctl *faultinject.Controller, link string) func() {
	return func() {
		if o := ctl.Next(link); o.Action == faultinject.ActionDelay && o.Delay > 0 {
			time.Sleep(o.Delay)
		}
	}
}

// runFsyncArm drives one phase-A point: appenders concurrent open-loop
// sessions against a fresh segment store under the given policy.
func runFsyncArm(opts DurabilityOptions, appenders int, policy storage.SyncPolicy, name string) (FsyncArm, error) {
	arm := FsyncArm{Appenders: appenders, Policy: name}
	dir, err := os.MkdirTemp("", "durability-fsync-*")
	if err != nil {
		return arm, err
	}
	defer os.RemoveAll(dir)
	ctl := faultinject.New(faultinject.Options{Seed: opts.Seed})
	ctl.SetLink("disk", faultinject.LinkOptions{DelayP: 1, Delay: opts.FsyncDelay})
	st, err := storage.OpenSegmentStore(dir, storage.SegmentStoreOptions{
		Sync:      policy,
		FsyncHook: diskHook(ctl, "disk"),
	})
	if err != nil {
		return arm, err
	}
	var nextLId atomic.Uint64
	eng := scale.NewEngine(scale.Config{
		Sessions:     appenders,
		TargetPerSec: float64(appenders) * opts.PerAppenderPerSec,
		Duration:     opts.Duration,
		Seed:         opts.Seed,
		Op: func(session int, intended time.Time) error {
			lid := nextLId.Add(1)
			return st.AppendBatch([]*core.Record{{LId: lid, TOId: lid, Body: []byte("d")}})
		},
	})
	stats := eng.Run()
	if err := st.Close(); err != nil {
		return arm, err
	}
	if got := stats.Completed + stats.ShedServer + stats.ShedClient + stats.Errors; got != stats.Offered {
		return arm, fmt.Errorf("cluster: durability ledger violated: offered %d != accounted %d", stats.Offered, got)
	}
	arm.Offered = stats.Offered
	arm.Completed = stats.Completed
	arm.Errors = stats.Errors
	arm.OfferedPerSec = float64(appenders) * opts.PerAppenderPerSec
	if stats.Elapsed > 0 {
		arm.AchievedPerSec = float64(stats.Completed) / stats.Elapsed.Seconds()
	}
	arm.P50Ms = float64(stats.Hist.Quantile(0.50)) / float64(time.Millisecond)
	arm.P99Ms = float64(stats.Hist.Quantile(0.99)) / float64(time.Millisecond)
	arm.MaxMs = float64(stats.Hist.Max()) / float64(time.Millisecond)
	arm.Fsyncs = st.FsyncCount()
	if stats.Completed > 0 {
		arm.FsyncsPerOp = float64(arm.Fsyncs) / float64(stats.Completed)
	}
	return arm, nil
}

// runQuorumArm drives one phase-B cluster: a 3-maintainer R=3 group over
// real segment stores, the append stream pinned to range 0 so the
// optionally-degraded member 2 is always a fan-out follower, never the
// acting primary.
func runQuorumArm(opts DurabilityOptions, name string, ack replica.AckPolicy, quorumFanout bool, slowMember int) (QuorumArm, error) {
	arm := QuorumArm{Name: name, Ack: ack.String(), QuorumFanout: quorumFanout, SlowMember: slowMember}
	const n, r = 3, 3
	dir, err := os.MkdirTemp("", "durability-quorum-*")
	if err != nil {
		return arm, err
	}
	defer os.RemoveAll(dir)
	ctl := faultinject.New(faultinject.Options{Seed: opts.Seed})
	p := flstore.Placement{NumMaintainers: n, BatchSize: 8}
	ms := make([]*flstore.Maintainer, n)
	for i := 0; i < n; i++ {
		link := fmt.Sprintf("m%d.disk", i)
		delay := opts.FsyncDelay
		if i == slowMember {
			delay = opts.FsyncDelay * time.Duration(opts.SlowFactor)
		}
		ctl.SetLink(link, faultinject.LinkOptions{DelayP: 1, Delay: delay})
		st, err := storage.OpenSegmentStore(fmt.Sprintf("%s/m%d", dir, i), storage.SegmentStoreOptions{
			Sync:      storage.SyncGroupCommit,
			FsyncHook: diskHook(ctl, link),
		})
		if err != nil {
			return arm, err
		}
		m, err := flstore.NewMaintainer(flstore.MaintainerConfig{
			Index: i, Placement: p, Replication: r, Store: st,
		})
		if err != nil {
			return arm, err
		}
		ms[i] = m
	}
	members := make([]replica.Member, n)
	for i, m := range ms {
		members[i] = m
	}
	sess, err := replica.NewSession(members, replica.SessionConfig{
		Layout:       replica.Layout{N: n, R: r},
		Ack:          ack,
		Owner:        func(lid uint64) int { return p.Owner(lid) },
		QuorumFanout: quorumFanout,
	})
	if err != nil {
		return arm, err
	}
	// A handful of concurrent sessions: enough for group commit to
	// coalesce, few enough that the wait-all arm's serialized slow disk
	// stays inside the schedule horizon.
	sessions := 8
	eng := scale.NewEngine(scale.Config{
		Sessions:     sessions,
		TargetPerSec: float64(sessions) * opts.PerAppenderPerSec,
		Duration:     opts.Duration,
		Seed:         opts.Seed,
		Op: func(session int, intended time.Time) error {
			_, err := sess.AppendRange(0, []*core.Record{{Body: []byte("q")}})
			return err
		},
	})
	stats := eng.Run()
	if got := stats.Completed + stats.ShedServer + stats.ShedClient + stats.Errors; got != stats.Offered {
		return arm, fmt.Errorf("cluster: durability ledger violated: offered %d != accounted %d", stats.Offered, got)
	}
	arm.Offered = stats.Offered
	arm.Completed = stats.Completed
	arm.Errors = stats.Errors
	if stats.Elapsed > 0 {
		arm.AchievedPerSec = float64(stats.Completed) / stats.Elapsed.Seconds()
	}
	arm.P50Ms = float64(stats.Hist.Quantile(0.50)) / float64(time.Millisecond)
	arm.P99Ms = float64(stats.Hist.Quantile(0.99)) / float64(time.Millisecond)
	// Detached stragglers: give the slow member a moment to drain, then
	// measure how far its durable watermark still trails the primary's.
	lagMember := slowMember
	if lagMember < 0 {
		lagMember = n - 1
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		primaryWM, _ := ms[0].DurableWatermark(0)
		memberWM, _ := ms[lagMember].DurableWatermark(0)
		if memberWM >= primaryWM || time.Now().After(deadline) {
			if primaryWM > memberWM && memberWM > 0 {
				arm.SlowDurableLag = p.SlotOf(primaryWM) - p.SlotOf(memberWM)
			}
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, m := range ms {
		if err := m.Store().Close(); err != nil {
			return arm, err
		}
	}
	return arm, nil
}

// RunDurability executes both phases and returns the artifact payload.
func RunDurability(opts DurabilityOptions) (*DurabilityResult, error) {
	opts.defaults()
	res := &DurabilityResult{
		FsyncDelayMs: float64(opts.FsyncDelay) / float64(time.Millisecond),
		SlowFactor:   opts.SlowFactor,
	}
	// Phase A: fsync collapse. Per-batch fsync is the baseline; group
	// commit must beat its tail once the offered rate outruns one fsync
	// per batch, by covering every batch that landed during an fsync with
	// the next one.
	var eachP99, groupP99 float64
	maxAppenders := 0
	for _, a := range opts.Appenders {
		each, err := runFsyncArm(opts, a, storage.SyncEachBatch, "each")
		if err != nil {
			return nil, err
		}
		group, err := runFsyncArm(opts, a, storage.SyncGroupCommit, "group")
		if err != nil {
			return nil, err
		}
		res.FsyncArms = append(res.FsyncArms, each, group)
		if a >= maxAppenders {
			maxAppenders = a
			eachP99, groupP99 = each.P99Ms, group.P99Ms
		}
	}
	if eachP99 > 0 {
		res.GroupP99Ratio64 = groupP99 / eachP99
	}
	// Phase B: quorum acks vs a degraded follower disk.
	healthy, err := runQuorumArm(opts, "healthy-quorum", replica.AckMajority, true, -1)
	if err != nil {
		return nil, err
	}
	slowAll, err := runQuorumArm(opts, "slow-all-ack", replica.AckAll, false, 2)
	if err != nil {
		return nil, err
	}
	slowQuorum, err := runQuorumArm(opts, "slow-quorum", replica.AckMajority, true, 2)
	if err != nil {
		return nil, err
	}
	res.QuorumArms = []QuorumArm{healthy, slowAll, slowQuorum}
	if healthy.P99Ms > 0 {
		res.QuorumSlowP99Ratio = slowQuorum.P99Ms / healthy.P99Ms
		res.AllAckSlowP99Ratio = slowAll.P99Ms / healthy.P99Ms
	}
	return res, nil
}
