// Package cluster assembles multi-process-on-one-box simulations of the
// paper's testbeds and runs the evaluation's experiments (§7): the FLStore
// scaling study (Figures 7 and 8), the Chariots pipeline bottleneck study
// (Tables 2–5, Figure 9), and the ablations DESIGN.md calls out.
//
// Each simulated "machine" carries an explicit capacity limiter standing
// in for the NIC/CPU bound of the paper's cluster nodes (see DESIGN.md
// §3.6): the claims under reproduction are *relative* — scaling slopes,
// saturation plateaus, and bottleneck hand-offs — and those shapes are
// functions of the sharing structure plus per-machine capacity, not of
// absolute hardware speed.
package cluster

import (
	"runtime"

	"repro/internal/chariots"
)

// profile is one machine-capacity profile (records/second per machine).
// Rates are in *paper units* (the real machines' records/second); when the
// host running the simulation cannot sustain the aggregate paper-unit
// load (the paper used up to 20 real machines), Scale divides every
// simulated rate and measurements are multiplied back, preserving every
// relative shape — scaling slopes, saturation points, bottleneck
// hand-offs are ratios of machine capacities and are invariant under a
// common scale factor.
type profile struct {
	Name string

	// Scale divides all simulated rates (≥ 1; see autoScale).
	Scale float64

	// FLStore experiments (Figures 7–8).
	//
	// MaintainerCap is a log maintainer's sustainable append rate; the
	// offered-load sweep of Figure 7 saturates against it.
	// RejectPenalty is the fraction of a record's work a saturated
	// maintainer still spends refusing an append — it produces the
	// slight throughput decline past the saturation peak.
	MaintainerCap float64
	RejectPenalty float64

	// Chariots pipeline experiments (Tables 2–5, Figure 9).
	//
	// ClientRate bounds one client (generator) machine. FilterNICRate
	// is the filter machine's shared network interface (steady-state
	// filter throughput is half of it; see chariots.Config).
	ClientRate    float64
	BatcherRate   float64
	FilterNICRate float64
	QueueRate     float64
	MaintRate     float64
	StoreRate     float64
}

// privateCloud models the paper's in-house cluster (Intel Xeon E5620,
// 10 GbE): a maintainer sustains ≈131K appends/s (Figure 8) and peaks
// ≈150K before degrading toward ≈120K under heavy overload (Figure 7);
// pipeline machines process ≈124–132K records/s (Table 2).
func privateCloud() profile {
	return profile{
		Name:          "private",
		Scale:         autoScale(),
		MaintainerCap: 150_000,
		RejectPenalty: 0.15,
		ClientRate:    129_000,
		BatcherRate:   126_000,
		FilterNICRate: 256_000, // effective filter throughput ≈128K
		QueueRate:     132_000,
		MaintRate:     130_000,
		StoreRate:     140_000,
	}
}

// publicCloud models the paper's AWS c3.large machines: lower and noisier
// per-machine capacity (a maintainer achieves ≈97–119K appends/s).
func publicCloud() profile {
	return profile{
		Name:          "public",
		Scale:         autoScale(),
		MaintainerCap: 135_000,
		RejectPenalty: 0.15,
		ClientRate:    120_000,
		BatcherRate:   118_000,
		FilterNICRate: 236_000,
		QueueRate:     124_000,
		MaintRate:     122_000,
		StoreRate:     130_000,
	}
}

// autoScale picks a simulation scale the host can sustain: the paper's
// largest configurations aggregate ≈2.5M records/s across what were 20
// physical machines, which a many-core host can simulate at full rate but
// a small one cannot. Rates divide by the scale; measurements multiply
// back (see profile).
func autoScale() float64 {
	switch cpus := runtime.NumCPU(); {
	case cpus >= 16:
		return 1
	case cpus >= 8:
		return 2
	case cpus >= 4:
		return 5
	default:
		return 20
	}
}

// scaleFactor returns the effective simulation scale divisor (≥ 1).
// Callers sizing fixed workloads (record counts) divide by it so run
// times stay comparable across hosts.
func (p profile) scaleFactor() float64 { return max(p.Scale, 1) }

// down converts a paper-unit rate to the simulated rate.
func (p profile) down(rate float64) float64 { return rate / p.scaleFactor() }

// stageRates converts the profile to the chariots per-stage limits, in
// simulated (scaled-down) units.
func (p profile) stageRates() chariots.StageRates {
	return chariots.StageRates{
		Batcher:    p.down(p.BatcherRate),
		Queue:      p.down(p.QueueRate),
		Maintainer: p.down(p.MaintRate),
		Store:      p.down(p.StoreRate),
	}
}
