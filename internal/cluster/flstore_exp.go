package cluster

import (
	"cmp"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/flstore"
	"repro/internal/metrics"
	"repro/internal/ratelimit"
	"repro/internal/workload"
)

// appendRate measures one FLStore scaling point (Figures 7–8 and the §5.2
// ablations): spec's maintainers behind p's capacity limiters, and one
// open-loop client machine per maintainer offering target 512-byte
// records/second (paper units) for d, client i appending to maintainer i —
// the paper's "identical number of client machines". It returns the
// cumulative achieved append rate in paper units. spec's round defaults to
// 1000; when sample is set it is called every millisecond of the run from
// one goroutine that has exited by the time appendRate returns.
func appendRate(p profile, spec RigSpec, target float64, d time.Duration, sample func(*Rig)) (float64, error) {
	spec.Round = cmp.Or(spec.Round, 1000)
	spec.Member = func(_ int, cfg *flstore.MaintainerConfig) error {
		cfg.Limiter = newSimLimiter(p.down(p.MaintainerCap))
		cfg.RejectPenalty = p.RejectPenalty
		return nil
	}
	rig, err := NewRig(spec)
	if err != nil {
		return 0, err
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
	scale := p.scaleFactor()
	_, elapsed := openLoop(spec.Maintainers, target/scale, 0, d, func(i int) workload.TimedSink {
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

	// Measurements scale back to paper units.
	var achieved float64
	for _, m := range rig.Maintainers {
		achieved += float64(m.Appended.Value()) / elapsed.Seconds() * scale
	}
	return achieved, nil
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

// fig7 sweeps the offered load on a single maintainer (Figure 7:
// throughput rises with the target, peaks at the machine's capacity, then
// declines slightly as rejection work eats into it), d per point.
func fig7(d time.Duration, rep *Report) error {
	tb := &metrics.Table{Header: []string{"Target (appends/s)", "Achieved (appends/s)"}}
	for _, target := range []float64{25_000, 50_000, 75_000, 100_000, 125_000, 150_000, 200_000, 250_000, 300_000} {
		got, err := appendRate(privateCloud(), RigSpec{Maintainers: 1}, target, d, nil)
		if err != nil {
			return err
		}
		tb.AddRow(kilo(target), metrics.FormatRate(got))
		rep.Metric("achieved@"+kilo(target)+"-appends/s", got)
	}
	rep.Printf("%s", tb)
	return nil
}

// fig8Series are the three lines of Figure 8: cumulative throughput as the
// maintainer count grows, for a fixed profile and per-client target.
var fig8Series = []struct {
	label  string
	p      profile
	target float64
}{
	{"public cloud target = 125K", publicCloud(), 125_000},
	{"public cloud target = 250K", publicCloud(), 250_000},
	{"private cloud", privateCloud(), 250_000},
}

// fig8 runs every series of Figure 8 from 1 to 10 maintainers, d per
// point, and reports each series' scaling efficiency: achieved at 10 over
// ten times the single-maintainer rate — the "99.3% of perfect scaling".
func fig8(d time.Duration, rep *Report) error {
	const most = 10
	rates := make([][]float64, len(fig8Series)) // [series][maintainers-1]
	for i, s := range fig8Series {
		for n := 1; n <= most; n++ {
			got, err := appendRate(s.p, RigSpec{Maintainers: n}, s.target, d, nil)
			if err != nil {
				return err
			}
			rates[i] = append(rates[i], got)
		}
	}
	tb := &metrics.Table{Header: []string{"Maintainers", fig8Series[0].label, fig8Series[1].label, fig8Series[2].label}}
	for n := 1; n <= most; n++ {
		tb.AddRow(fmt.Sprint(n), kilo(rates[0][n-1]), kilo(rates[1][n-1]), kilo(rates[2][n-1]))
	}
	rep.Printf("%s", tb)
	for i, s := range fig8Series {
		efficiency := rates[i][most-1] / (most * rates[i][0])
		rep.Printf("scaling efficiency (%s): %.1f%%\n", s.label, 100*efficiency)
		rep.Metric("efficiency/"+s.label, efficiency)
		rep.Metric("appends/s@10/"+s.label, rates[i][most-1])
	}
	return nil
}

// batchsizeAblation sweeps the placement round size (§5.2) at 4
// maintainers offered 125K appends/s per client, d per point.
func batchsizeAblation(d time.Duration, rep *Report) error {
	for _, round := range []uint64{100, 1000, 10000} {
		got, err := appendRate(privateCloud(), RigSpec{Maintainers: 4, Round: round}, 125_000, d, nil)
		if err != nil {
			return err
		}
		rep.Printf("batch %6d: %s appends/s\n", round, kilo(got))
		rep.Metric(fmt.Sprintf("appends/s@round=%d", round), got)
	}
	return nil
}
