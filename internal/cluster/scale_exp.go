package cluster

// Scale experiment: run entries of the internal/scale scenario matrix —
// open-loop sessions over emulated WAN links with scripted faults — and
// collect their BENCH_scale.json rows. The cluster layer adds the
// replay-contract check: the executed event log must equal the scenario's
// precomputed expansion, or the artifact's determinism claim is void.

import (
	"fmt"
	"reflect"
	"time"

	"repro/internal/metrics"
	"repro/internal/scale"
)

// ScaleBench is the BENCH_scale.json payload: one row per scenario run.
type ScaleBench struct {
	Seed      uint64         `json:"seed"`
	Scenarios []scale.Result `json:"scenarios"`
}

// scaleScenario runs one named scenario and verifies the replay contract
// on the way out.
func scaleScenario(name string, opt scale.Options) (scale.Result, error) {
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

// scaleMatrix runs the named scenarios at their declared full size,
// registering each run's scale_* series on a fresh metrics registry.
func scaleMatrix(names []string) (ScaleBench, error) {
	bench := ScaleBench{Seed: scaleSeed}
	for _, name := range names {
		reg := metrics.NewRegistry()
		res, err := scaleScenario(name, scale.Options{Seed: scaleSeed, Registry: reg})
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

// ScaleExperiment is the scale entry over the named scenarios of the
// internal/scale matrix (the table runs steady + partition; `repro
// -scenario` substitutes one).
func ScaleExperiment(scenarios ...string) Experiment {
	return Experiment{
		Name: "scale", Kind: Measured, Artifact: "scale",
		Title: "Extension — million-client scale harness (open-loop sessions over emulated WAN)",
		Claim: "not in the paper's evaluation: tens of thousands of concurrent open-loop sessions with coordinated-omission-safe latency, seeded WAN link profiles, and scripted partition/heal on one replayable event log; scenarios run at their declared full size regardless of -dur so the schedules stay reproducible",
		run: func(_ time.Duration, rep *Report) error {
			bench, err := scaleMatrix(scenarios)
			if err != nil {
				return err
			}
			rep.Data = bench
			tb := &metrics.Table{Header: []string{"scenario", "dcs", "sessions", "offered/s", "achieved/s", "p50", "p99", "p999", "shed", "converge", "wan evs", "log fp"}}
			for _, r := range bench.Scenarios {
				tb.AddRow(r.Scenario, fmt.Sprint(r.DCs), fmt.Sprint(r.Sessions),
					fmt.Sprintf("%.0f", r.OfferedPerSec), fmt.Sprintf("%.0f", r.AchievedPerSec),
					fmt.Sprintf("%.1fms", r.P50Ms), fmt.Sprintf("%.1fms", r.P99Ms), fmt.Sprintf("%.1fms", r.P999Ms),
					fmt.Sprint(r.ShedServer+r.ShedClient), fmt.Sprintf("%.0fms", r.ConvergeMs),
					fmt.Sprint(r.WANEvents), r.EventLogFingerprint)
				rep.Metric("p99-ms@"+r.Scenario, r.P99Ms)
				rep.Bar(r.Scenario+" sessions", float64(r.Sessions), ">=", 10000)
				rep.Bar(r.Scenario+" completed appends", float64(r.Completed), ">=", 1)
			}
			rep.Printf("%s", tb)
			return nil
		},
	}
}
