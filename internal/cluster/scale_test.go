package cluster

import (
	"fmt"
	"math"
	"testing"
	"time"
)

// TestScaleInvariance validates the simulation methodology itself: the
// reproduced quantities are capacity ratios, so running the same
// experiment at two different simulation scales must produce the same
// paper-unit numbers. If this ever breaks, the scale knob is distorting
// results rather than just slowing them down.
func TestScaleInvariance(t *testing.T) {
	checkShape(t, "scale invariance", func() error {
		measure := func(scale float64) (float64, error) {
			p := PrivateCloud()
			p.Scale = scale
			res, err := RunFLStore(FLStoreOptions{
				Profile:         p,
				Maintainers:     2,
				TargetPerClient: 125_000,
				Duration:        500 * time.Millisecond,
			})
			if err != nil {
				return 0, err
			}
			return res.AchievedTotal, nil
		}
		atLow, err := measure(10)
		if err != nil {
			return err
		}
		atHigh, err := measure(40)
		if err != nil {
			return err
		}
		ratio := atLow / atHigh
		if math.Abs(ratio-1) > 0.15 {
			return fmt.Errorf("scale 10 measured %.0f, scale 40 measured %.0f (ratio %.2f, want ≈1)",
				atLow, atHigh, ratio)
		}
		return nil
	})
}

// TestScaleInvariancePipeline does the same for the pipeline bottleneck
// experiment: the bottlenecked client total must be scale-independent.
func TestScaleInvariancePipeline(t *testing.T) {
	checkShape(t, "pipeline scale invariance", func() error {
		measure := func(scale float64) (float64, error) {
			p := PrivateCloud()
			p.Scale = scale
			res, err := RunPipeline(PipelineOptions{
				Profile: p,
				Clients: 2, Batchers: 1, Filters: 1, Queues: 1,
				Duration: 500 * time.Millisecond,
			})
			if err != nil {
				return 0, err
			}
			return res.StageTotals()["Client"], nil
		}
		atLow, err := measure(10)
		if err != nil {
			return err
		}
		atHigh, err := measure(40)
		if err != nil {
			return err
		}
		ratio := atLow / atHigh
		if math.Abs(ratio-1) > 0.2 {
			return fmt.Errorf("scale 10 clients %.0f, scale 40 clients %.0f (ratio %.2f, want ≈1)",
				atLow, atHigh, ratio)
		}
		return nil
	})
}
