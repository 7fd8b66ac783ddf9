package cluster

import (
	"time"

	"repro/internal/core"
	"repro/internal/flstore"
	"repro/internal/ratelimit"
	"repro/internal/workload"
)

// FLStoreOptions configures one FLStore scaling run (Figures 7–8): n
// maintainers, n open-loop client machines offering TargetPerClient
// 512-byte records/second each (client i appends to maintainer i, the
// paper's "identical number of client machines").
type FLStoreOptions struct {
	Profile         Profile
	Maintainers     int
	TargetPerClient float64
	Duration        time.Duration
	// Round is the placement round size (default 1000; the §5.2 ablation
	// sweeps it).
	Round uint64
}

// FLStoreResult is one measured point.
type FLStoreResult struct {
	Maintainers     int
	TargetPerClient float64
	// AchievedTotal is the cumulative append throughput (records/s).
	AchievedTotal float64
}

// RunFLStore executes one scaling point.
func RunFLStore(opts FLStoreOptions) (FLStoreResult, error) { return runFLStore(opts, 0, nil) }

// runFLStore is the FLStore load driver: it stands the maintainers up
// behind their capacity limiters, optionally gossiping, offers the load,
// and — when sample is set — calls it every millisecond of the run from
// one goroutine that has exited by the time runFLStore returns.
func runFLStore(opts FLStoreOptions, gossip time.Duration, sample func(*Rig)) (FLStoreResult, error) {
	if opts.Duration <= 0 {
		opts.Duration = time.Second
	}
	if opts.Round == 0 {
		opts.Round = 1000
	}
	rig, err := NewRig(RigSpec{
		Maintainers: opts.Maintainers,
		Round:       opts.Round,
		Gossip:      gossip,
		Member: func(_ int, cfg *flstore.MaintainerConfig) error {
			cfg.Limiter = newSimLimiter(opts.Profile.down(opts.Profile.MaintainerCap))
			cfg.RejectPenalty = opts.Profile.RejectPenalty
			return nil
		},
	})
	if err != nil {
		return FLStoreResult{}, err
	}
	defer rig.Close()

	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		if sample == nil {
			return
		}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				sample(rig)
			}
		}
	}()
	scale := opts.Profile.ScaleFactor()
	_, elapsed := openLoop(opts.Maintainers, opts.TargetPerClient/scale, 0, opts.Duration, func(i int) workload.TimedSink {
		m := rig.Maintainers[i]
		return func(_ time.Time, recs []*core.Record) int {
			if _, err := m.Append(recs); err != nil {
				return 0 // overloaded: offered load dropped
			}
			return len(recs)
		}
	})
	close(stop)
	<-sampled

	res := FLStoreResult{Maintainers: opts.Maintainers, TargetPerClient: opts.TargetPerClient}
	// Measurements scale back to paper units.
	for _, m := range rig.Maintainers {
		res.AchievedTotal += float64(m.Appended.Value()) / elapsed.Seconds() * scale
	}
	return res, nil
}

// newSimLimiter builds a machine-capacity limiter for the FLStore
// experiments: the burst is generous enough to absorb the generators'
// batch granularity near the saturation boundary (where acceptance is
// otherwise scheduling-noise sensitive), but the bucket starts nearly
// empty so short measurement windows see the steady rate rather than the
// initial burst.
func newSimLimiter(rate float64) *ratelimit.Limiter {
	b := int(rate / 10)
	if b < 192 {
		b = 192
	}
	l := ratelimit.New(rate, b)
	l.Penalize(float64(b) - 128)
	return l
}

// RunFigure7 sweeps the offered load on a single maintainer (Figure 7:
// throughput rises with the target, peaks at the machine's capacity, then
// declines slightly as rejection work eats into it).
func RunFigure7(profile Profile, targets []float64, duration time.Duration) ([]FLStoreResult, error) {
	var points []FLStoreResult
	for _, target := range targets {
		res, err := RunFLStore(FLStoreOptions{Profile: profile, Maintainers: 1, TargetPerClient: target, Duration: duration})
		if err != nil {
			return nil, err
		}
		points = append(points, res)
	}
	return points, nil
}

// Figure8Series is one line of Figure 8: cumulative throughput as the
// maintainer count grows, for a fixed profile and per-client target.
type Figure8Series struct {
	Label  string
	Points []FLStoreResult
}

// RunFigure8 produces the three series of Figure 8.
func RunFigure8(maintainerCounts []int, duration time.Duration) ([]Figure8Series, error) {
	configs := []struct {
		label   string
		profile Profile
		target  float64
	}{
		{"public cloud target = 125K", PublicCloud(), 125_000},
		{"public cloud target = 250K", PublicCloud(), 250_000},
		{"private cloud", PrivateCloud(), 250_000},
	}
	var out []Figure8Series
	for _, cfg := range configs {
		series := Figure8Series{Label: cfg.label}
		for _, n := range maintainerCounts {
			res, err := RunFLStore(FLStoreOptions{Profile: cfg.profile, Maintainers: n, TargetPerClient: cfg.target, Duration: duration})
			if err != nil {
				return nil, err
			}
			series.Points = append(series.Points, res)
		}
		out = append(out, series)
	}
	return out, nil
}

// ScalingEfficiency returns achieved/(n × single-maintainer-achieved) for
// the last point of a series — the "99.3% of perfect scaling" number.
func ScalingEfficiency(s Figure8Series) float64 {
	if len(s.Points) < 2 {
		return 1
	}
	first := s.Points[0]
	last := s.Points[len(s.Points)-1]
	perfect := first.AchievedTotal / float64(first.Maintainers) * float64(last.Maintainers)
	if perfect == 0 {
		return 0
	}
	return last.AchievedTotal / perfect
}
