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
	// Appenders are the concurrency points of the fsync sweep, ascending.
	Appenders []int
	// PerAppenderPerSec is each session's offered arrival rate.
	PerAppenderPerSec float64
	// Duration is the arrival-schedule horizon per arm.
	Duration time.Duration
	// SlowFactor multiplies fsyncDelay on the degraded member's disk in
	// phase B.
	SlowFactor int
	// Seed drives the arrival schedules and the fault schedule.
	Seed uint64
}

// fsyncDelay is the injected cost of one healthy fsync.
const fsyncDelay = time.Millisecond

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
// sessions against a fresh segment store under the given policy.
func runFsyncArm(opts DurabilityOptions, appenders int, policy storage.SyncPolicy, name string) (FsyncArm, error) {
	arm := FsyncArm{Appenders: appenders, Policy: name}
	dir, err := os.MkdirTemp("", "durability-fsync-*")
	if err != nil {
		return arm, err
	}
	defer os.RemoveAll(dir)
	ctl := faultinject.New(faultinject.Options{Seed: opts.Seed})
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
	if arm.LoadStats, err = loadStats(stats); err != nil {
		return arm, err
	}
	arm.OfferedPerSec = float64(appenders) * opts.PerAppenderPerSec
	arm.MaxMs = ms(stats.Hist.Max())
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
	const n = 3
	dir, err := os.MkdirTemp("", "durability-quorum-*")
	if err != nil {
		return arm, err
	}
	defer os.RemoveAll(dir)
	ctl := faultinject.New(faultinject.Options{Seed: opts.Seed})
	rig, err := NewRig(RigSpec{
		Maintainers: n, Replication: n, Round: 8,
		Member: func(i int, cfg *flstore.MaintainerConfig) (err error) {
			link := fmt.Sprintf("m%d.disk", i)
			delay := fsyncDelay
			if i == slowMember {
				delay *= time.Duration(opts.SlowFactor)
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
		TargetPerSec: float64(sessions) * opts.PerAppenderPerSec,
		Duration:     opts.Duration,
		Seed:         opts.Seed,
		Op: func(session int, intended time.Time) error {
			_, err := sess.AppendRange(0, []*core.Record{{Body: []byte("q")}})
			return err
		},
	})
	stats := eng.Run()
	if arm.LoadStats, err = loadStats(stats); err != nil {
		return arm, err
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

// RunDurability executes both phases and returns the artifact payload.
func RunDurability(opts DurabilityOptions) (*DurabilityResult, error) {
	res := &DurabilityResult{
		FsyncDelayMs: ms(fsyncDelay),
		SlowFactor:   opts.SlowFactor,
	}
	// Phase A: fsync collapse. Per-batch fsync is the baseline; group
	// commit must beat its tail once the offered rate outruns one fsync
	// per batch, by covering every batch that landed during an fsync with
	// the next one.
	var each, group FsyncArm
	for _, a := range opts.Appenders {
		var err error
		if each, err = runFsyncArm(opts, a, storage.SyncEachBatch, "each"); err != nil {
			return nil, err
		}
		if group, err = runFsyncArm(opts, a, storage.SyncGroupCommit, "group"); err != nil {
			return nil, err
		}
		res.FsyncArms = append(res.FsyncArms, each, group)
	}
	if each.P99Ms > 0 { // the last, largest appender count
		res.GroupP99Ratio64 = group.P99Ms / each.P99Ms
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
