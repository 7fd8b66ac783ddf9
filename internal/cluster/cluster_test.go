package cluster

import (
	"fmt"
	"testing"
	"time"
)

// The experiments here measure throughput over sub-second wall-clock
// windows, which on small or virtualized CI hosts can be perturbed by
// scheduler noise (a single 50 ms deschedule skews a 300 ms window by
// ~15%). Shape assertions therefore run under checkShape: a condition
// must hold on some attempt out of three, which filters noise while still
// failing deterministically when the shape itself is wrong. The
// full-length runs live in cmd/repro and EXPERIMENTS.md.
const testDur = 300 * time.Millisecond

func checkShape(t *testing.T, name string, attempt func() error) {
	t.Helper()
	var err error
	for i := 0; i < 3; i++ {
		if err = attempt(); err == nil {
			return
		}
	}
	t.Errorf("%s (3 attempts): %v", name, err)
}

func TestFLStoreSinglePointBelowCapacity(t *testing.T) {
	checkShape(t, "below-capacity point", func() error {
		got, err := appendRate(privateCloud(), RigSpec{Maintainers: 1}, 50_000, testDur, nil)
		if err != nil {
			return err
		}
		// Below capacity, achieved ≈ offered.
		if got < 35_000 || got > 65_000 {
			return fmt.Errorf("achieved %.0f/s at 50K target, want ≈50K", got)
		}
		return nil
	})
}

func TestFigure7Shape(t *testing.T) {
	checkShape(t, "figure 7 load curve", func() error {
		var points []float64
		for _, target := range []float64{50_000, 150_000, 300_000} {
			got, err := appendRate(privateCloud(), RigSpec{Maintainers: 1}, target, testDur, nil)
			if err != nil {
				return err
			}
			points = append(points, got)
		}
		low, atCap, over := points[0], points[1], points[2]
		// Rising region: achieved tracks the target below capacity.
		if low < 0.7*50_000 {
			return fmt.Errorf("under-capacity point achieved %.0f of %.0f target", low, 50_000.0)
		}
		// The observed peak sits near the machine capacity (150K).
		peak := max(low, atCap, over)
		if peak < 115_000 || peak > 170_000 {
			return fmt.Errorf("peak achieved %.0f, want ≈150K", peak)
		}
		if atCap < 100_000 {
			return fmt.Errorf("at-capacity point collapsed to %.0f", atCap)
		}
		// Deep overload declines below the peak (reject work) but stays
		// well above zero — the paper's ≈120K plateau-with-droop.
		if over >= peak {
			return fmt.Errorf("no decline past saturation: peak %.0f, overload %.0f", peak, over)
		}
		if over < 90_000 {
			return fmt.Errorf("overload throughput collapsed to %.0f", over)
		}
		return nil
	})
}

func TestFigure8NearLinearScaling(t *testing.T) {
	checkShape(t, "figure 8 scaling", func() error {
		for _, s := range fig8Series {
			one, err := appendRate(s.p, RigSpec{Maintainers: 1}, s.target, 700*time.Millisecond, nil)
			if err != nil {
				return err
			}
			four, err := appendRate(s.p, RigSpec{Maintainers: 4}, s.target, 700*time.Millisecond, nil)
			if err != nil {
				return err
			}
			if eff := four / (4 * one); eff < 0.8 || eff > 1.2 {
				return fmt.Errorf("%s: scaling efficiency %.2f, want ≈1.0 (n=1: %.0f, n=4: %.0f)",
					s.label, eff, one, four)
			}
			// Cumulative throughput must actually grow.
			if four < 2*one {
				return fmt.Errorf("%s: 4 maintainers only %.0f vs %.0f for 1", s.label, four, one)
			}
		}
		return nil
	})
}

func TestPipelineTable2Shape(t *testing.T) {
	checkShape(t, "table 2 balance", func() error {
		rates, err := pipelineRates(privateCloud(), stages{1, 1, 1, 1}, 500*time.Millisecond, 512)
		if err != nil {
			return err
		}
		// Every stage within the same ballpark (paper: 124–132K).
		for stage, rate := range stageTotals(rates) {
			if rate < 95_000 || rate > 160_000 {
				return fmt.Errorf("stage %s at %.0f/s, want ≈110-130K", stage, rate)
			}
		}
		return nil
	})
}

func TestPipelineTable3ClientsHalve(t *testing.T) {
	checkShape(t, "table 3 client halving", func() error {
		rates, err := pipelineRates(privateCloud(), stages{2, 1, 1, 1}, 500*time.Millisecond, 512)
		if err != nil {
			return err
		}
		totals := stageTotals(rates)
		// Two clients share the single-batcher bottleneck: each ≈64K,
		// sum ≈ batcher capacity.
		if totals["Client"] < 95_000 || totals["Client"] > 150_000 {
			return fmt.Errorf("client total %.0f, want ≈126K (bottleneck-shared)", totals["Client"])
		}
		for _, r := range rates {
			if stageOf(r.name) == "Client" && r.perSec > 95_000 {
				return fmt.Errorf("client at %.0f/s did not feel backpressure", r.perSec)
			}
		}
		return nil
	})
}

func TestPipelineTable5Doubles(t *testing.T) {
	checkShape(t, "table 5 doubling", func() error {
		single, err := pipelineRates(privateCloud(), stages{1, 1, 1, 1}, 400*time.Millisecond, 512)
		if err != nil {
			return err
		}
		double, err := pipelineRates(privateCloud(), stages{2, 2, 2, 2}, 400*time.Millisecond, 512)
		if err != nil {
			return err
		}
		ratio := stageTotals(double)["Client"] / stageTotals(single)["Client"]
		if ratio < 1.6 || ratio > 2.4 {
			return fmt.Errorf("doubling every stage scaled clients %.2fx, want ≈2x", ratio)
		}
		return nil
	})
}

func TestPipelineFigure9Timeseries(t *testing.T) {
	checkShape(t, "figure 9 drain tail", func() error {
		samples, applied, _, err := drainPipeline(60_000, 25*time.Millisecond)
		if err != nil {
			return err
		}
		want := uint64(60_000 / privateCloud().scaleFactor())
		if applied < want-512 {
			return fmt.Errorf("drained only %d of ≈%d records", applied, want)
		}
		// Clients finish before the queue does (the drain tail).
		lastActive := func(name string) time.Duration {
			var last time.Duration
			for _, s := range samples[name] {
				if s.Count > 0 {
					last = s.Elapsed
				}
			}
			return last
		}
		clientEnd := lastActive("Client 1")
		queueEnd := lastActive("Queue")
		if clientEnd == 0 || queueEnd == 0 {
			return fmt.Errorf("missing samples: client=%v queue=%v", clientEnd, queueEnd)
		}
		if queueEnd <= clientEnd {
			return fmt.Errorf("queue finished at %v, not after clients at %v", queueEnd, clientEnd)
		}
		return nil
	})
}

func TestSequencerBaselinePlateaus(t *testing.T) {
	checkShape(t, "sequencer plateau", func() error {
		var seq, fl [2]float64
		for i, n := range []int{1, 4} {
			var err error
			if seq[i], err = sequencerRate(privateCloud(), n, 200_000, testDur); err != nil {
				return err
			}
			if fl[i], err = appendRate(privateCloud(), RigSpec{Maintainers: n}, 200_000, testDur, nil); err != nil {
				return err
			}
		}
		flRatio := fl[1] / fl[0]
		seqRatio := seq[1] / seq[0]
		if flRatio < 3 {
			return fmt.Errorf("FLStore scaled only %.2fx over 4 machines", flRatio)
		}
		if seqRatio > 1.5 {
			return fmt.Errorf("sequencer baseline scaled %.2fx despite central bottleneck", seqRatio)
		}
		if fl[1] < 2*seq[1] {
			return fmt.Errorf("at 4 machines FLStore %.0f vs sequencer %.0f: expected a clear win", fl[1], seq[1])
		}
		return nil
	})
}

func TestProfiles(t *testing.T) {
	for _, p := range []profile{privateCloud(), publicCloud()} {
		if p.MaintainerCap <= 0 || p.ClientRate <= 0 || p.FilterNICRate <= 0 {
			t.Errorf("%s profile has zero capacities", p.Name)
		}
		if p.scaleFactor() < 1 {
			t.Errorf("%s scale factor %v < 1", p.Name, p.scaleFactor())
		}
	}
	if got := (profile{}).scaleFactor(); got != 1 {
		t.Errorf("unset scale = %v, want 1", got)
	}
}
