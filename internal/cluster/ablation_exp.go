package cluster

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sequencer"
	"repro/internal/workload"
)

// sequencerRate measures the CORFU-baseline's append throughput (paper
// units): the same storage substrate as FLStore — one striped storage unit
// and one client per machine — but with positions pre-assigned by a
// central sequencer that runs on the same class of machine as a
// maintainer, so its reservation capacity equals one machine's
// record-processing capacity.
func sequencerRate(p profile, machines int, target float64, d time.Duration) (float64, error) {
	machineCap := p.down(p.MaintainerCap)
	units := make([]*sequencer.StorageUnit, machines)
	for i := range units {
		units[i] = sequencer.NewStorageUnit(nil, newSimLimiter(machineCap))
	}
	log, err := sequencer.NewLog(sequencer.NewSequencer(newSimLimiter(machineCap)), units)
	if err != nil {
		return 0, err
	}
	gens, elapsed := openLoop(machines, p.down(target), 0, d, func(int) workload.TimedSink {
		return func(_ time.Time, recs []*core.Record) int {
			ok := 0
			for _, r := range recs {
				if _, err := log.Append(r); err == nil {
					ok++
				}
			}
			return ok
		}
	})
	var accepted uint64
	for _, g := range gens {
		accepted += g.Accepted.Value()
	}
	return float64(accepted) / elapsed.Seconds() * p.scaleFactor(), nil
}

// sequencerAblation sweeps storage-machine counts, driving both designs
// with the same per-machine profile and offered load (200K appends/s per
// client, d per point) — the motivating claim of §1/§5.2: pre-assignment
// plateaus at the sequencer's capacity, post-assignment scales with
// machines.
func sequencerAblation(d time.Duration, rep *Report) error {
	const target = 200_000
	tb := &metrics.Table{Header: []string{"Machines", "Sequencer (appends/s)", "FLStore (appends/s)", "FLStore speedup"}}
	for _, n := range []int{1, 2, 4, 6, 8, 10} {
		seq, err := sequencerRate(privateCloud(), n, target, d)
		if err != nil {
			return err
		}
		fl, err := appendRate(privateCloud(), RigSpec{Maintainers: n}, target, d, nil)
		if err != nil {
			return err
		}
		tb.AddRow(fmt.Sprint(n), kilo(seq), kilo(fl), fmt.Sprintf("%.1fx", fl/seq))
		rep.Metric(fmt.Sprintf("flstore-speedup@%d", n), fl/seq)
	}
	rep.Printf("%s", tb)
	return nil
}
