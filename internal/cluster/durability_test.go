package cluster

import (
	"testing"
	"time"
)

// TestDurabilitySmoke runs a reduced durability experiment end to end: both
// fsync policies at two appender counts plus all three quorum arms, with a
// short horizon and a cheap injected disk. It asserts the shape of the
// artifact and the invariants the full run's acceptance bars rely on, not
// the performance ratios themselves (those need the full horizon).
//
// Group commit is paced by the fsync itself, so it coalesces only when
// batches arrive faster than the disk syncs them: offered rate x fsync
// delay > 1. The 64-appender arm (2560/s x 1 ms) is on that side and must
// collapse fsyncs/op below 1; the 1-appender arm (40/s) has nothing to
// coalesce, and making it wait for company would only add latency.
func TestDurabilitySmoke(t *testing.T) {
	res, err := RunDurability(DurabilityOptions{
		Appenders:         []int{1, 64},
		PerAppenderPerSec: 40,
		Duration:          300 * time.Millisecond,
		SlowFactor:        10,
		Seed:              7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FsyncArms) != 4 {
		t.Fatalf("fsync arms = %d, want 4", len(res.FsyncArms))
	}
	saturated := 0
	for _, a := range res.FsyncArms {
		if a.Offered == 0 || a.Offered != a.Completed+a.Errors {
			t.Fatalf("arm %d/%s ledger: offered=%d completed=%d errors=%d",
				a.Appenders, a.Policy, a.Offered, a.Completed, a.Errors)
		}
		if a.Errors != 0 {
			t.Fatalf("arm %d/%s saw %d append errors", a.Appenders, a.Policy, a.Errors)
		}
		if a.Fsyncs == 0 {
			t.Fatalf("arm %d/%s recorded no fsyncs", a.Appenders, a.Policy)
		}
		if a.Policy == "each" && a.FsyncsPerOp < 1 {
			t.Fatalf("per-batch policy fsyncs/op = %.2f, want >= 1", a.FsyncsPerOp)
		}
		if a.Policy == "group" && a.OfferedPerSec*res.FsyncDelayMs/1e3 > 1 {
			saturated++
			if a.FsyncsPerOp >= 1 {
				t.Fatalf("group commit at %d appenders (%.0f/s offered, %.1f ms fsync) did not collapse fsyncs: %.2f/op",
					a.Appenders, a.OfferedPerSec, res.FsyncDelayMs, a.FsyncsPerOp)
			}
		}
	}
	if saturated == 0 {
		t.Fatal("no group arm offered more than one batch per fsync: the collapse bar checked nothing")
	}
	if len(res.QuorumArms) != 3 {
		t.Fatalf("quorum arms = %d, want 3", len(res.QuorumArms))
	}
	for _, a := range res.QuorumArms {
		if a.Offered == 0 || a.Completed == 0 {
			t.Fatalf("quorum arm %s moved no load: offered=%d completed=%d", a.Name, a.Offered, a.Completed)
		}
		if a.Errors != 0 {
			t.Fatalf("quorum arm %s saw %d errors", a.Name, a.Errors)
		}
	}
	if res.GroupP99Ratio64 <= 0 {
		t.Fatalf("group p99 ratio = %v, want > 0", res.GroupP99Ratio64)
	}
	if res.QuorumSlowP99Ratio <= 0 || res.AllAckSlowP99Ratio <= 0 {
		t.Fatalf("quorum ratios = %v / %v, want > 0",
			res.QuorumSlowP99Ratio, res.AllAckSlowP99Ratio)
	}
}
