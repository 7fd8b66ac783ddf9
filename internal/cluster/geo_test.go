package cluster

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/chariots"
	"repro/internal/core"
)

func TestGeoClusterConvergence(t *testing.T) {
	g, err := newGeoCluster(3, 2*time.Millisecond, chariots.Config{
		Maintainers:    2,
		FlushThreshold: 4,
		SendThreshold:  4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.stop()

	const n = 30
	for i := 0; i < n; i++ {
		for _, dc := range g.dcs {
			dc.AppendAsync([]byte(fmt.Sprintf("%s-%d", dc.Self(), i)), nil)
		}
	}
	deadline := time.Now().Add(20 * time.Second)
	for _, dc := range g.dcs {
		for d := 0; d < 3; d++ {
			for dc.Applied().Get(core.DCID(d)) < n {
				if time.Now().After(deadline) {
					t.Fatalf("%s never converged: %v", dc.Self(), dc.Applied())
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	for _, dc := range g.dcs {
		dc.Quiesce(30*time.Millisecond, 5*time.Second)
		recs, err := dc.LogRecords()
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 3*n {
			t.Errorf("%s has %d records, want %d", dc.Self(), len(recs), 3*n)
		}
		if err := chariots.CheckCausalInvariant(recs); err != nil {
			t.Error(err)
		}
	}
}

func TestGeoVisibilityScalesWithDelay(t *testing.T) {
	checkShape(t, "geo visibility", func() error {
		near, _, err := visibilityLag(2*time.Millisecond, 15)
		if err != nil {
			return err
		}
		far, _, err := visibilityLag(25*time.Millisecond, 15)
		if err != nil {
			return err
		}
		// Visibility lag tracks the one-way delay: the far link must be
		// substantially slower than the near one, and neither can beat
		// the physical delay... minus the measurement epsilon (the
		// probe starts timing after the local ack, which the pipeline
		// may already have shipped).
		if far < 15*time.Millisecond {
			return fmt.Errorf("far visibility %v beats the 25ms one-way delay", far)
		}
		if far < 2*near {
			return fmt.Errorf("far %v not clearly above near %v", far, near)
		}
		return nil
	})
}
