package cluster

import (
	"time"

	"repro/internal/core"
	"repro/internal/sequencer"
	"repro/internal/workload"
)

// runSequencer measures the CORFU-baseline's append throughput (paper
// units): the same storage substrate as FLStore — one striped storage unit
// and one client per machine — but with positions pre-assigned by a
// central sequencer that runs on the same class of machine as a
// maintainer, so its reservation capacity equals one machine's
// record-processing capacity.
func runSequencer(profile Profile, machines int, targetPerClient float64, d time.Duration) (float64, error) {
	machineCap := profile.down(profile.MaintainerCap)
	units := make([]*sequencer.StorageUnit, machines)
	for i := range units {
		units[i] = sequencer.NewStorageUnit(nil, newSimLimiter(machineCap))
	}
	log, err := sequencer.NewLog(sequencer.NewSequencer(newSimLimiter(machineCap)), units)
	if err != nil {
		return 0, err
	}
	gens, elapsed := openLoop(machines, profile.down(targetPerClient), 0, d, func(int) workload.TimedSink {
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
	return float64(accepted) / elapsed.Seconds() * profile.ScaleFactor(), nil
}

// AblationPoint pairs the baseline and FLStore at the same scale.
type AblationPoint struct {
	Machines  int
	Sequencer float64 // baseline achieved appends/s
	FLStore   float64 // post-assignment achieved appends/s
}

// RunSequencerVsFLStore sweeps storage-machine counts, driving both
// designs with the same per-machine profile and offered load — the
// motivating claim of §1/§5.2: pre-assignment plateaus at the sequencer's
// capacity, post-assignment scales with machines.
func RunSequencerVsFLStore(profile Profile, machineCounts []int, targetPerClient float64, duration time.Duration) ([]AblationPoint, error) {
	var out []AblationPoint
	for _, n := range machineCounts {
		seq, err := runSequencer(profile, n, targetPerClient, duration)
		if err != nil {
			return nil, err
		}
		fl, err := RunFLStore(FLStoreOptions{Profile: profile, Maintainers: n, TargetPerClient: targetPerClient, Duration: duration})
		if err != nil {
			return nil, err
		}
		out = append(out, AblationPoint{Machines: n, Sequencer: seq, FLStore: fl.AchievedTotal})
	}
	return out, nil
}
