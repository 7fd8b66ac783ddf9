package cluster

import (
	"testing"
	"time"
)

// TestReadScalingSweepSmoke runs a miniature replica read-scaling sweep
// end to end — real TCP, replicated preload, spread reads — asserting the
// sweep's correctness properties (every point measured, hot set found,
// throughput positive), not the throughput ratio: CI machines are too
// noisy to gate a perf bar in a unit test, so the ratio is enforced by
// `repro -exp readpath` with full budgets.
func TestReadScalingSweepSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spins up TCP stacks")
	}
	opts := ReadScalingOptions{
		BatchSize: 4,
		Records:   120,
		Readers:   4,
		Budget:    150 * time.Millisecond,
		Replicas:  []int{1, 3},
	}
	points, err := RunReadScaling(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("got %d points, want 2", len(points))
	}
	for i, want := range []int{1, 3} {
		pt := points[i]
		if pt.Replication != want {
			t.Errorf("point %d replication = %d, want %d", i, pt.Replication, want)
		}
		if pt.Records == 0 {
			t.Errorf("R=%d: empty hot set", pt.Replication)
		}
		if pt.ReadsPerSec <= 0 {
			t.Errorf("R=%d: no reads measured", pt.Replication)
		}
	}
}
