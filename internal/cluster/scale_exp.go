package cluster

// Scale experiment: run entries of the internal/scale scenario matrix —
// open-loop sessions over emulated WAN links with scripted faults — and
// collect their BENCH_scale.json rows. The cluster layer adds the
// replay-contract check: the executed event log must equal the scenario's
// precomputed expansion, or the artifact's determinism claim is void.

import (
	"fmt"
	"reflect"

	"repro/internal/metrics"
	"repro/internal/scale"
)

// ScaleBench is the BENCH_scale.json payload: one row per scenario run.
type ScaleBench struct {
	Seed      uint64         `json:"seed"`
	Scenarios []scale.Result `json:"scenarios"`
}

// RunScaleScenario runs one named scenario and verifies the replay
// contract on the way out.
func RunScaleScenario(name string, opt scale.Options) (scale.Result, error) {
	sc, ok := scale.Lookup(name)
	if !ok {
		return scale.Result{}, fmt.Errorf("cluster: unknown scale scenario %q (known: %v)", name, scale.Names())
	}
	res, err := scale.Run(sc, opt)
	if err != nil {
		return res, err
	}
	want := scale.RenderScript(sc.With(opt).Expand())
	if !reflect.DeepEqual(res.EventLog, want) {
		return res, fmt.Errorf("cluster: scenario %s executed event log %v != precomputed expansion %v", name, res.EventLog, want)
	}
	if fp := scale.LogFingerprint(want); fp != res.EventLogFingerprint {
		return res, fmt.Errorf("cluster: scenario %s event-log fingerprint %s != expansion's %s", name, res.EventLogFingerprint, fp)
	}
	return res, nil
}

// scaleSeed seeds every scenario run of the matrix.
const scaleSeed = 1

// RunScaleMatrix runs the named scenarios at their declared full size,
// registering each run's scale_* series on a fresh metrics registry.
func RunScaleMatrix(names []string) (ScaleBench, error) {
	bench := ScaleBench{Seed: scaleSeed}
	for _, name := range names {
		reg := metrics.NewRegistry()
		res, err := RunScaleScenario(name, scale.Options{Seed: scaleSeed, Registry: reg})
		if err != nil {
			return bench, err
		}
		if snap := reg.Snapshot().Find("scale_offered_total", nil); snap == nil || uint64(snap.Value) != res.Offered {
			return bench, fmt.Errorf("cluster: scenario %s scale_offered_total metric disagrees with ledger", name)
		}
		bench.Scenarios = append(bench.Scenarios, res)
	}
	return bench, nil
}
