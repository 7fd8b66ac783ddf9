package cluster

import (
	"fmt"
	"testing"

	"repro/internal/metrics"
)

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
	a := &autoscaler{ticks: 2, grow: func() error { grew++; return nil }}
	calm := snapshotWith(gaugeSeries("flstore_rejected_total", 0, nil))
	hot := func(n float64) metrics.Snapshot {
		return snapshotWith(gaugeSeries("flstore_rejected_total", n, nil))
	}

	// First tick seeds the rejects counter — even a hot snapshot reads as
	// no delta.
	if dec := a.observe(hot(100)); dec.pressure {
		t.Fatal("first tick must seed, not breach")
	}
	// One breaching tick is below the streak.
	if dec := a.observe(hot(150)); !dec.pressure || dec.grew {
		t.Fatalf("tick 2: pressure without grow expected, got %+v", dec)
	}
	// Second consecutive breach fires the hook.
	if dec := a.observe(hot(200)); !dec.grew {
		t.Fatalf("tick 3: grow expected, got %+v", dec)
	}
	// Latched: continued pressure must not re-fire.
	if dec := a.observe(hot(250)); dec.grew {
		t.Fatal("latched hook re-fired under sustained pressure")
	}
	// Pressure clears, then returns: the hook re-arms.
	a.observe(calm) // rejects total regressing => delta <= 0, no pressure
	a.observe(hot(300))
	if dec := a.observe(hot(400)); !dec.grew {
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
	a := &autoscaler{ticks: 1, grow: func() error {
		calls++
		if calls == 1 {
			return fmt.Errorf("factory down")
		}
		return nil
	}}
	hot := func(n float64) metrics.Snapshot {
		return snapshotWith(gaugeSeries("flstore_rejected_total", n, nil))
	}
	a.observe(hot(1)) // seed
	if dec := a.observe(hot(10)); dec.err == nil || dec.grew {
		t.Fatalf("failing hook should surface Err, got %+v", dec)
	}
	if dec := a.observe(hot(20)); !dec.grew {
		t.Fatalf("retry after hook error should grow, got %+v", dec)
	}
	if calls != 2 {
		t.Fatalf("hook called %d times, want 2", calls)
	}
}

// TestAutoscalerSignals checks signalsFrom derives each signal from the
// metric families the deployment actually exports.
func TestAutoscalerSignals(t *testing.T) {
	sn := snapshotWith(
		gaugeSeries("flstore_admission_backlog_records", 80, map[string]string{"maintainer": "0"}),
		gaugeSeries("flstore_admission_backlog_budget_records", 100, map[string]string{"maintainer": "0"}),
		gaugeSeries("flstore_head_lid", 60000, nil),
		gaugeSeries("replica_durable_watermark", 1000, map[string]string{"member": "1"}),
		gaugeSeries("replica_durable_watermark", 0, map[string]string{"member": "2"}),
	)
	sig := signalsFrom(sn)
	if sig.backlogRatio != 0.8 {
		t.Fatalf("backlogRatio = %v, want 0.8", sig.backlogRatio)
	}
	// The zero watermark (member 2 not reporting) must be ignored.
	if sig.durableLag != 59000 {
		t.Fatalf("durableLag = %v, want 59000", sig.durableLag)
	}
}
