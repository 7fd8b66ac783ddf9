package cluster

import (
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/flstore"
	"repro/internal/metrics"
	"repro/internal/replica"
	"repro/internal/scale"
	"repro/internal/storage"
)

// The durability-tier experiment: the group-commit fsync-collapse sweep
// (phase A) and the quorum-ack degraded-disk comparison (phase B). Disk
// cost is injected through a seeded faultinject controller — one named
// link per store's fsync path — so the experiment measures the durability
// protocols, not the host filesystem, and a run is reproducible by seed.
const (
	// fsyncDelay is the injected cost of one healthy fsync.
	fsyncDelay = time.Millisecond
	// durabilityRate is each appender's offered arrival rate (records/s).
	durabilityRate = 25
	// durabilitySlowFactor multiplies fsyncDelay on the degraded member's
	// disk in phase B.
	durabilitySlowFactor = 20
	durabilitySeed       = 1
)

// FsyncArm is one point of the phase-A sweep: a fixed appender count
// driven open-loop against one segment store under one fsync policy.
type FsyncArm struct {
	Appenders int    `json:"appenders"`
	Policy    string `json:"policy"`
	LoadStats
	OfferedPerSec float64 `json:"offered_per_sec"`
	MaxMs         float64 `json:"max_ms"`
	Fsyncs        uint64  `json:"fsyncs"`
	FsyncsPerOp   float64 `json:"fsyncs_per_op"`
}

// QuorumArm is one phase-B cluster run: a 3-member replica group with a
// given ack/fan-out mode and optionally one member's disk slowed.
type QuorumArm struct {
	Name         string `json:"name"`
	Ack          string `json:"ack"`
	QuorumFanout bool   `json:"quorum_fanout"`
	SlowMember   int    `json:"slow_member"` // -1 = all disks healthy
	LoadStats
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
// sessions against a fresh segment store under the given policy for d. It
// fails on an append error, on a run that never fsynced, on per-batch
// fsync syncing less than once per append, and on group commit that was
// offered more than one batch per fsync time and did not coalesce.
func runFsyncArm(d time.Duration, appenders int, policy storage.SyncPolicy, name string) (FsyncArm, error) {
	arm := FsyncArm{Appenders: appenders, Policy: name}
	dir, err := os.MkdirTemp("", "durability-fsync-*")
	if err != nil {
		return arm, err
	}
	defer os.RemoveAll(dir)
	ctl := faultinject.New(faultinject.Options{Seed: durabilitySeed})
	ctl.SetLink("disk", faultinject.LinkOptions{DelayP: 1, Delay: fsyncDelay})
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
		TargetPerSec: float64(appenders) * durabilityRate,
		Duration:     d,
		Seed:         durabilitySeed,
		Op: func(session int, intended time.Time) error {
			lid := nextLId.Add(1)
			return st.AppendBatch([]*core.Record{{LId: lid, TOId: lid, Body: []byte("d")}})
		},
	})
	stats := eng.Run()
	if err := st.Close(); err != nil {
		return arm, err
	}
	if arm.LoadStats, err = loadStats(stats); err != nil {
		return arm, err
	}
	arm.OfferedPerSec = float64(appenders) * durabilityRate
	arm.MaxMs = ms(stats.Hist.Max())
	arm.Fsyncs = st.FsyncCount()
	if stats.Completed > 0 {
		arm.FsyncsPerOp = float64(arm.Fsyncs) / float64(stats.Completed)
	}
	// Group commit is paced by the fsync itself, so it coalesces only when
	// batches arrive faster than the disk syncs them: offered rate × fsync
	// delay > 1. Below that there is nothing to coalesce, and making an
	// append wait for company would only add latency.
	saturated := arm.OfferedPerSec*fsyncDelay.Seconds() > 1
	switch {
	case arm.Errors > 0:
		return arm, fmt.Errorf("cluster: fsync arm %d/%s saw %d append errors", appenders, name, arm.Errors)
	case arm.Fsyncs == 0:
		return arm, fmt.Errorf("cluster: fsync arm %d/%s recorded no fsyncs", appenders, name)
	case policy == storage.SyncEachBatch && arm.FsyncsPerOp < 1:
		return arm, fmt.Errorf("cluster: per-batch fsync at %d appenders synced %.2f times per append, want >= 1", appenders, arm.FsyncsPerOp)
	case policy == storage.SyncGroupCommit && saturated && arm.FsyncsPerOp >= 1:
		return arm, fmt.Errorf("cluster: group commit at %d appenders (%.0f/s offered, %v fsync) did not collapse fsyncs: %.2f/op",
			appenders, arm.OfferedPerSec, fsyncDelay, arm.FsyncsPerOp)
	}
	return arm, nil
}

// runQuorumArm drives one phase-B cluster for d: a 3-maintainer R=3 group
// over real segment stores, the append stream pinned to range 0 so the
// optionally-degraded member 2 is always a fan-out follower, never the
// acting primary. It fails on an append error or a run that moved no load.
func runQuorumArm(d time.Duration, name string, ack replica.AckPolicy, quorumFanout bool, slowMember int) (QuorumArm, error) {
	arm := QuorumArm{Name: name, Ack: ack.String(), QuorumFanout: quorumFanout, SlowMember: slowMember}
	const n = 3
	dir, err := os.MkdirTemp("", "durability-quorum-*")
	if err != nil {
		return arm, err
	}
	defer os.RemoveAll(dir)
	ctl := faultinject.New(faultinject.Options{Seed: durabilitySeed})
	rig, err := NewRig(RigSpec{
		Maintainers: n, Replication: n, Round: 8,
		Member: func(i int, cfg *flstore.MaintainerConfig) (err error) {
			link := fmt.Sprintf("m%d.disk", i)
			delay := fsyncDelay
			if i == slowMember {
				delay *= durabilitySlowFactor
			}
			ctl.SetLink(link, faultinject.LinkOptions{DelayP: 1, Delay: delay})
			cfg.Store, err = storage.OpenSegmentStore(fmt.Sprintf("%s/m%d", dir, i), storage.SegmentStoreOptions{
				Sync:      storage.SyncGroupCommit,
				FsyncHook: diskHook(ctl, link),
			})
			return err
		},
	})
	if err != nil {
		return arm, err
	}
	defer rig.Close()
	// The session fans out to the maintainers directly, not through the
	// rig's RPC handles: the arms compare ack protocols against disk cost,
	// and the bar is stated for that path.
	p := rig.Placement
	members := make([]replica.Member, n)
	for i, m := range rig.Maintainers {
		members[i] = m
	}
	sess, err := replica.NewSession(members, replica.SessionConfig{
		Layout:       replica.Layout{N: n, R: n},
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
		TargetPerSec: float64(sessions) * durabilityRate,
		Duration:     d,
		Seed:         durabilitySeed,
		Op: func(session int, intended time.Time) error {
			_, err := sess.AppendRange(0, []*core.Record{{Body: []byte("q")}})
			return err
		},
	})
	stats := eng.Run()
	if arm.LoadStats, err = loadStats(stats); err != nil {
		return arm, err
	}
	if arm.Errors > 0 || arm.Completed == 0 {
		return arm, fmt.Errorf("cluster: quorum arm %s: %d of %d offered appends completed, %d failed",
			name, arm.Completed, arm.Offered, arm.Errors)
	}
	// Detached stragglers: give the slow member a moment to drain, then
	// measure how far its durable watermark still trails the primary's.
	lagMember := slowMember
	if lagMember < 0 {
		lagMember = n - 1
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		primaryWM, _ := rig.Maintainers[0].DurableWatermark(0)
		memberWM, _ := rig.Maintainers[lagMember].DurableWatermark(0)
		if memberWM >= primaryWM || time.Now().After(deadline) {
			if primaryWM > memberWM && memberWM > 0 {
				arm.SlowDurableLag = p.SlotOf(primaryWM) - p.SlotOf(memberWM)
			}
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	return arm, rig.Close()
}

// durability runs both phases, d per arm — phase A at 1, 8 and 64
// appenders — and writes the BENCH_durability.json payload.
func durability(d time.Duration, rep *Report) error {
	res := &DurabilityResult{
		FsyncDelayMs: ms(fsyncDelay),
		SlowFactor:   durabilitySlowFactor,
	}
	// Phase A: fsync collapse. Per-batch fsync is the baseline; group
	// commit must beat its tail once the offered rate outruns one fsync
	// per batch, by covering every batch that landed during an fsync with
	// the next one.
	var each, group FsyncArm
	for _, a := range []int{1, 8, 64} {
		var err error
		if each, err = runFsyncArm(d, a, storage.SyncEachBatch, "each"); err != nil {
			return err
		}
		if group, err = runFsyncArm(d, a, storage.SyncGroupCommit, "group"); err != nil {
			return err
		}
		res.FsyncArms = append(res.FsyncArms, each, group)
	}
	res.GroupP99Ratio64 = group.P99Ms / each.P99Ms // the last, largest appender count
	// Phase B: quorum acks vs a degraded follower disk.
	healthy, err := runQuorumArm(d, "healthy-quorum", replica.AckMajority, true, -1)
	if err != nil {
		return err
	}
	slowAll, err := runQuorumArm(d, "slow-all-ack", replica.AckAll, false, 2)
	if err != nil {
		return err
	}
	slowQuorum, err := runQuorumArm(d, "slow-quorum", replica.AckMajority, true, 2)
	if err != nil {
		return err
	}
	res.QuorumArms = []QuorumArm{healthy, slowAll, slowQuorum}
	res.QuorumSlowP99Ratio = slowQuorum.P99Ms / healthy.P99Ms
	res.AllAckSlowP99Ratio = slowAll.P99Ms / healthy.P99Ms
	rep.Data = res

	msf := func(v float64) string { return fmt.Sprintf("%.2fms", v) }
	tb := &metrics.Table{Header: []string{"appenders", "policy", "offered/s", "achieved/s", "p50", "p99", "fsyncs", "fsyncs/op"}}
	for _, a := range res.FsyncArms {
		tb.AddRow(fmt.Sprint(a.Appenders), a.Policy,
			fmt.Sprintf("%.0f", a.OfferedPerSec), fmt.Sprintf("%.0f", a.AchievedPerSec),
			msf(a.P50Ms), msf(a.P99Ms), fmt.Sprint(a.Fsyncs), fmt.Sprintf("%.3f", a.FsyncsPerOp))
	}
	rep.Printf("%s", tb)
	rep.Printf("group/each p99 at max appenders %.2fx (bar: <= 0.5x)\n", res.GroupP99Ratio64)
	qb := &metrics.Table{Header: []string{"arm", "ack", "quorum fanout", "slow member", "achieved/s", "p50", "p99", "durable lag"}}
	for _, a := range res.QuorumArms {
		slow := "-"
		if a.SlowMember >= 0 {
			slow = fmt.Sprintf("m%d (%dx disk)", a.SlowMember, res.SlowFactor)
		}
		qb.AddRow(a.Name, a.Ack, fmt.Sprint(a.QuorumFanout), slow,
			fmt.Sprintf("%.0f", a.AchievedPerSec), msf(a.P50Ms), msf(a.P99Ms), fmt.Sprint(a.SlowDurableLag))
	}
	rep.Printf("%s", qb)
	rep.Printf("slow-disk p99 vs healthy: quorum %.2fx (bar: <= 2x) | wait-all %.2fx\n",
		res.QuorumSlowP99Ratio, res.AllAckSlowP99Ratio)
	rep.Metric("group/each-p99-ratio", res.GroupP99Ratio64)
	rep.Metric("quorum-slow/healthy-p99-ratio", res.QuorumSlowP99Ratio)
	rep.Bar("group-commit p99 / per-batch p99 at max appenders", res.GroupP99Ratio64, "<=", 0.5)
	rep.Bar("quorum p99 with a slow disk / healthy", res.QuorumSlowP99Ratio, "<=", 2)
	if !(res.GroupP99Ratio64 > 0 && res.QuorumSlowP99Ratio > 0 && res.AllAckSlowP99Ratio > 0) {
		return fmt.Errorf("cluster: durability p99 ratios %v / %v / %v, want all > 0",
			res.GroupP99Ratio64, res.QuorumSlowP99Ratio, res.AllAckSlowP99Ratio)
	}
	return nil
}
