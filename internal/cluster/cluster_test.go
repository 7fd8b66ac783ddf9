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
		res, err := RunFLStore(FLStoreOptions{
			Profile:         PrivateCloud(),
			Maintainers:     1,
			TargetPerClient: 50_000,
			Duration:        testDur,
		})
		if err != nil {
			return err
		}
		// Below capacity, achieved ≈ offered.
		if res.AchievedTotal < 35_000 || res.AchievedTotal > 65_000 {
			return fmt.Errorf("achieved %.0f/s at 50K target, want ≈50K", res.AchievedTotal)
		}
		return nil
	})
}

func TestFigure7Shape(t *testing.T) {
	checkShape(t, "figure 7 load curve", func() error {
		points, err := RunFigure7(PrivateCloud(), []float64{50_000, 150_000, 300_000}, testDur)
		if err != nil {
			return err
		}
		low, atCap, over := points[0], points[1], points[2]
		// Rising region: achieved tracks the target below capacity.
		if low.AchievedTotal < 0.7*low.TargetPerClient {
			return fmt.Errorf("under-capacity point achieved %.0f of %.0f target", low.AchievedTotal, low.TargetPerClient)
		}
		// The observed peak sits near the machine capacity (150K).
		peak := low.AchievedTotal
		for _, p := range points[1:] {
			if p.AchievedTotal > peak {
				peak = p.AchievedTotal
			}
		}
		if peak < 115_000 || peak > 170_000 {
			return fmt.Errorf("peak achieved %.0f, want ≈150K", peak)
		}
		if atCap.AchievedTotal < 100_000 {
			return fmt.Errorf("at-capacity point collapsed to %.0f", atCap.AchievedTotal)
		}
		// Deep overload declines below the peak (reject work) but stays
		// well above zero — the paper's ≈120K plateau-with-droop.
		if over.AchievedTotal >= peak {
			return fmt.Errorf("no decline past saturation: peak %.0f, overload %.0f", peak, over.AchievedTotal)
		}
		if over.AchievedTotal < 90_000 {
			return fmt.Errorf("overload throughput collapsed to %.0f", over.AchievedTotal)
		}
		return nil
	})
}

func TestFigure8NearLinearScaling(t *testing.T) {
	checkShape(t, "figure 8 scaling", func() error {
		series, err := RunFigure8([]int{1, 4}, 700*time.Millisecond)
		if err != nil {
			return err
		}
		if len(series) != 3 {
			return fmt.Errorf("got %d series, want 3", len(series))
		}
		for _, s := range series {
			eff := ScalingEfficiency(s)
			if eff < 0.8 || eff > 1.2 {
				return fmt.Errorf("%s: scaling efficiency %.2f, want ≈1.0 (n=1: %.0f, n=4: %.0f)",
					s.Label, eff, s.Points[0].AchievedTotal, s.Points[1].AchievedTotal)
			}
			// Cumulative throughput must actually grow.
			if s.Points[1].AchievedTotal < 2*s.Points[0].AchievedTotal {
				return fmt.Errorf("%s: 4 maintainers only %.0f vs %.0f for 1",
					s.Label, s.Points[1].AchievedTotal, s.Points[0].AchievedTotal)
			}
		}
		return nil
	})
}

func TestPipelineTable2Shape(t *testing.T) {
	checkShape(t, "table 2 balance", func() error {
		res, err := RunPipeline(PipelineOptions{
			Profile: PrivateCloud(),
			Clients: 1, Batchers: 1, Filters: 1, Queues: 1,
			Duration: 500 * time.Millisecond,
		})
		if err != nil {
			return err
		}
		// Every stage within the same ballpark (paper: 124–132K).
		for stage, rate := range res.StageTotals() {
			if rate < 95_000 || rate > 160_000 {
				return fmt.Errorf("stage %s at %.0f/s, want ≈110-130K", stage, rate)
			}
		}
		if res.Applied == 0 {
			return fmt.Errorf("nothing applied")
		}
		return nil
	})
}

func TestPipelineTable3ClientsHalve(t *testing.T) {
	checkShape(t, "table 3 client halving", func() error {
		res, err := RunPipeline(PipelineOptions{
			Profile: PrivateCloud(),
			Clients: 2, Batchers: 1, Filters: 1, Queues: 1,
			Duration: 500 * time.Millisecond,
		})
		if err != nil {
			return err
		}
		totals := res.StageTotals()
		// Two clients share the single-batcher bottleneck: each ≈64K,
		// sum ≈ batcher capacity.
		if totals["Client"] < 95_000 || totals["Client"] > 150_000 {
			return fmt.Errorf("client total %.0f, want ≈126K (bottleneck-shared)", totals["Client"])
		}
		for _, row := range res.Rows {
			if stageOf(row.Name) == "Client" && row.PerSec > 95_000 {
				return fmt.Errorf("client at %.0f/s did not feel backpressure", row.PerSec)
			}
		}
		return nil
	})
}

func TestPipelineTable5Doubles(t *testing.T) {
	checkShape(t, "table 5 doubling", func() error {
		single, err := RunPipeline(PipelineOptions{
			Profile: PrivateCloud(),
			Clients: 1, Batchers: 1, Filters: 1, Queues: 1,
			Duration: 400 * time.Millisecond,
		})
		if err != nil {
			return err
		}
		double, err := RunPipeline(PipelineOptions{
			Profile: PrivateCloud(),
			Clients: 2, Batchers: 2, Filters: 2, Queues: 2,
			Duration: 400 * time.Millisecond,
		})
		if err != nil {
			return err
		}
		ratio := double.StageTotals()["Client"] / single.StageTotals()["Client"]
		if ratio < 1.6 || ratio > 2.4 {
			return fmt.Errorf("doubling every stage scaled clients %.2fx, want ≈2x", ratio)
		}
		return nil
	})
}

func TestPipelineFigure9Timeseries(t *testing.T) {
	checkShape(t, "figure 9 drain tail", func() error {
		profile := PrivateCloud()
		res, err := RunPipeline(PipelineOptions{
			Profile: profile,
			Clients: 2, Batchers: 2, Filters: 1, Queues: 1,
			Records:      uint64(60_000 / profile.ScaleFactor()),
			SampleWindow: 25 * time.Millisecond,
		})
		if err != nil {
			return err
		}
		want := uint64(60_000 / profile.ScaleFactor())
		if res.Applied < want-512 {
			return fmt.Errorf("drained only %d of ≈%d records", res.Applied, want)
		}
		// Clients finish before the queue does (the drain tail).
		lastActive := func(name string) time.Duration {
			var last time.Duration
			for _, s := range res.Samples[name] {
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
		points, err := RunSequencerVsFLStore(PrivateCloud(), []int{1, 4}, 200_000, testDur)
		if err != nil {
			return err
		}
		p1, p4 := points[0], points[1]
		flRatio := p4.FLStore / p1.FLStore
		seqRatio := p4.Sequencer / p1.Sequencer
		if flRatio < 3 {
			return fmt.Errorf("FLStore scaled only %.2fx over 4 machines", flRatio)
		}
		if seqRatio > 1.5 {
			return fmt.Errorf("sequencer baseline scaled %.2fx despite central bottleneck", seqRatio)
		}
		if p4.FLStore < 2*p4.Sequencer {
			return fmt.Errorf("at 4 machines FLStore %.0f vs sequencer %.0f: expected a clear win", p4.FLStore, p4.Sequencer)
		}
		return nil
	})
}

func TestRunPipelineValidation(t *testing.T) {
	if _, err := RunPipeline(PipelineOptions{Clients: 0, Duration: time.Second}); err == nil {
		t.Error("0 clients accepted")
	}
	if _, err := RunPipeline(PipelineOptions{Clients: 1}); err == nil {
		t.Error("neither Duration nor Records rejected")
	}
	if _, err := RunPipeline(PipelineOptions{Clients: 1, Duration: time.Second, Records: 5}); err == nil {
		t.Error("both Duration and Records accepted")
	}
}

func TestProfiles(t *testing.T) {
	for _, p := range []Profile{PrivateCloud(), PublicCloud()} {
		if p.MaintainerCap <= 0 || p.ClientRate <= 0 || p.FilterNICRate <= 0 {
			t.Errorf("%s profile has zero capacities", p.Name)
		}
		if p.ScaleFactor() < 1 {
			t.Errorf("%s scale factor %v < 1", p.Name, p.ScaleFactor())
		}
	}
	if got := (Profile{}).ScaleFactor(); got != 1 {
		t.Errorf("unset scale = %v, want 1", got)
	}
}
