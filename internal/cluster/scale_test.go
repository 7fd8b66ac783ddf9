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
			p := privateCloud()
			p.Scale = scale
			return appendRate(p, RigSpec{Maintainers: 2}, 125_000, 500*time.Millisecond, nil)
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
			p := privateCloud()
			p.Scale = scale
			rates, err := pipelineRates(p, stages{2, 1, 1, 1}, 500*time.Millisecond, 512)
			if err != nil {
				return 0, err
			}
			return stageTotals(rates)["Client"], nil
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
