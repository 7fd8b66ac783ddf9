package cluster

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/chariots"
	"repro/internal/metrics"
)

// TestElasticSmoke runs a shortened elasticity experiment end to end:
// load doubles past the old member set's capacity, the autoscaler fires
// the epoch switchover, and the run must finish with an intact log and
// bounded post-flip p99.
func TestElasticSmoke(t *testing.T) {
	res, err := RunElastic(ElasticOptions{
		PerMaintainerRate: 600,
		BaseRate:          800,
		PhaseA:            500 * time.Millisecond,
		PhaseB:            900 * time.Millisecond,
		PhaseC:            500 * time.Millisecond,
		Sessions:          4,
		AutoscaleTick:     50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("RunElastic: %v (result %+v)", err, res)
	}
	if !res.GrowTriggered {
		t.Fatal("autoscaler never fired")
	}
	if res.Epochs != 2 {
		t.Fatalf("epochs = %d, want 2", res.Epochs)
	}
	if !res.MigrationDone {
		t.Fatal("migration incomplete")
	}
	if res.DuplicateLIds != 0 || res.LostLIds != 0 {
		t.Fatalf("integrity: %d dups, %d lost", res.DuplicateLIds, res.LostLIds)
	}
	if !res.P99Bounded {
		t.Fatalf("post-flip p99 %.1fms unbounded (pre %.1fms)", res.P99AfterMs, res.P99BeforeMs)
	}
	if res.UniqueLIds == 0 || res.AppendsAfter == 0 {
		t.Fatalf("no traffic measured: %+v", res)
	}
}

// snapshotWith builds a synthetic registry snapshot out of plain series.
func snapshotWith(series ...metrics.SeriesSnapshot) metrics.Snapshot {
	return metrics.Snapshot{Series: series}
}

func gaugeSeries(name string, v float64, labels map[string]string) metrics.SeriesSnapshot {
	return metrics.SeriesSnapshot{Name: name, Labels: labels, Kind: "gauge", Value: v}
}

// TestAutoscalerStreakAndLatch drives Observe with synthetic snapshots:
// the hook must fire only after K consecutive breaching ticks, fire once
// per episode, and re-arm after the pressure clears.
func TestAutoscalerStreakAndLatch(t *testing.T) {
	grew := 0
	a := NewAutoscaler(AutoscaleConfig{
		Ticks:   2,
		GrowLog: func() error { grew++; return nil },
	})
	calm := snapshotWith(gaugeSeries("flstore_rejected_total", 0, nil))
	hot := func(n float64) metrics.Snapshot {
		return snapshotWith(gaugeSeries("flstore_rejected_total", n, nil))
	}

	// First tick seeds the rejects counter — even a hot snapshot reads as
	// no delta.
	if dec := a.Observe(hot(100)); dec.LogPressure {
		t.Fatal("first tick must seed, not breach")
	}
	// One breaching tick is below the streak.
	if dec := a.Observe(hot(150)); !dec.LogPressure || dec.GrewLog {
		t.Fatalf("tick 2: pressure without grow expected, got %+v", dec)
	}
	// Second consecutive breach fires the hook.
	if dec := a.Observe(hot(200)); !dec.GrewLog {
		t.Fatalf("tick 3: grow expected, got %+v", dec)
	}
	// Latched: continued pressure must not re-fire.
	if dec := a.Observe(hot(250)); dec.GrewLog {
		t.Fatal("latched hook re-fired under sustained pressure")
	}
	// Pressure clears, then returns: the hook re-arms.
	a.Observe(calm) // rejects total regressing => delta <= 0, no pressure
	a.Observe(hot(300))
	if dec := a.Observe(hot(400)); !dec.GrewLog {
		t.Fatalf("re-armed hook did not fire, got %+v", dec)
	}
	if grew != 2 {
		t.Fatalf("grew %d times, want 2", grew)
	}
}

// TestAutoscalerHookErrorRearms verifies a failing hook re-arms so a
// later tick can retry the grow.
func TestAutoscalerHookErrorRearms(t *testing.T) {
	calls := 0
	a := NewAutoscaler(AutoscaleConfig{
		Ticks: 1,
		GrowLog: func() error {
			calls++
			if calls == 1 {
				return fmt.Errorf("factory down")
			}
			return nil
		},
	})
	hot := func(n float64) metrics.Snapshot {
		return snapshotWith(gaugeSeries("flstore_rejected_total", n, nil))
	}
	a.Observe(hot(1)) // seed
	if dec := a.Observe(hot(10)); dec.Err == "" || dec.GrewLog {
		t.Fatalf("failing hook should surface Err, got %+v", dec)
	}
	if dec := a.Observe(hot(20)); !dec.GrewLog {
		t.Fatalf("retry after hook error should grow, got %+v", dec)
	}
	if calls != 2 {
		t.Fatalf("hook called %d times, want 2", calls)
	}
}

// TestAutoscalerSignals checks SignalsFrom derives each signal from the
// metric families the deployment actually exports.
func TestAutoscalerSignals(t *testing.T) {
	sn := snapshotWith(
		gaugeSeries("flstore_admission_backlog_records", 80, map[string]string{"maintainer": "0"}),
		gaugeSeries("flstore_admission_backlog_budget_records", 100, map[string]string{"maintainer": "0"}),
		gaugeSeries("chariots_credit_high_water_records", 90, map[string]string{"dc": "A"}),
		gaugeSeries("chariots_credit_capacity_records", 100, map[string]string{"dc": "A"}),
		gaugeSeries("flstore_head_lid", 60000, nil),
		gaugeSeries("replica_durable_watermark", 1000, map[string]string{"member": "1"}),
		gaugeSeries("replica_durable_watermark", 0, map[string]string{"member": "2"}),
	)
	sig := SignalsFrom(sn)
	if sig.BacklogRatio != 0.8 {
		t.Fatalf("BacklogRatio = %v, want 0.8", sig.BacklogRatio)
	}
	if sig.CreditRatio != 0.9 {
		t.Fatalf("CreditRatio = %v, want 0.9", sig.CreditRatio)
	}
	// The zero watermark (member 2 not reporting) must be ignored.
	if sig.DurableLag != 59000 {
		t.Fatalf("DurableLag = %v, want 59000", sig.DurableLag)
	}
}

// TestAutoscalerGrowsPipeline checks the pipeline dimension end to end
// against a live Datacenter: sustained credit pressure adds a queue and
// a filter.
func TestAutoscalerGrowsPipeline(t *testing.T) {
	dc, err := chariots.New(chariots.Config{
		Self:     0,
		NumDCs:   1,
		Batchers: 1, Filters: 1, Queues: 1, Maintainers: 1,
		PlacementBatch: 100,
		FlushThreshold: 8,
		Rates: chariots.StageRates{
			Batcher: 1e6, Filter: 1e6, Queue: 1e6, Maintainer: 1e6,
			Store: 1e6, Sender: 1e6, Receiver: 1e6,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	dc.Start()
	defer dc.Stop()
	before := dc.Stages()
	grew := false
	a := NewAutoscaler(AutoscaleConfig{
		Ticks: 2,
		GrowPipeline: func() error {
			if _, err := dc.AddQueue(0, 1e6); err != nil {
				return err
			}
			if _, err := dc.AddFilter(1e6); err != nil {
				return err
			}
			grew = true
			return nil
		},
	})
	hot := snapshotWith(
		gaugeSeries("chariots_credit_high_water_records", 95, map[string]string{"dc": "A"}),
		gaugeSeries("chariots_credit_capacity_records", 100, map[string]string{"dc": "A"}),
	)
	a.Observe(hot)
	dec := a.Observe(hot)
	if !dec.GrewPipeline || !grew {
		t.Fatalf("pipeline grow did not fire: %+v", dec)
	}
	after := dc.Stages()
	if after.Queues != before.Queues+1 || after.Filters != before.Filters+1 {
		t.Fatalf("stages before %+v after %+v: want +1 queue, +1 filter", before, after)
	}
}
