// Command repro regenerates every table and figure of the paper's
// evaluation (§7) and prints the measured rows/series next to the numbers
// the paper reports. Run all experiments, or one:
//
//	go run ./cmd/repro                       # everything
//	go run ./cmd/repro -exp fig8             # one experiment
//	go run ./cmd/repro -exp table4 -dur 5s   # longer steady window
//
// Experiments: fig7, fig8, table2, table3, table4, table5, fig9,
// ablation-sequencer, ablation-batchsize, ablation-gossip,
// ablation-tokencarry, ablation-flush, geo-visibility, hyksos, failover,
// readpath, overload, tracelat, scale, durability, elastic.
//
// The scale experiment runs entries of the internal/scale scenario matrix
// at full acceptance size (>= 10000 open-loop sessions); select one with
// -scenario, or leave it empty for the steady + partition pair:
//
//	go run ./cmd/repro -exp scale -scenario herd
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/replica"
	"repro/internal/scale"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (all, fig7, fig8, table2..table5, fig9, ablation-*, scale)")
	dur := flag.Duration("dur", 2*time.Second, "steady-state measurement window per point")
	scenario := flag.String("scenario", "", "scale scenario to run (steady, diurnal, hotkey, herd, partition; empty = steady + partition)")
	flag.Parse()

	runners := map[string]func(time.Duration) error{
		"fig7":                runFig7,
		"fig8":                runFig8,
		"table2":              func(d time.Duration) error { return runTable(2, 1, 1, d) },
		"table3":              func(d time.Duration) error { return runTable(3, 2, 1, d) },
		"table4":              func(d time.Duration) error { return runTable(4, 2, 2, d) },
		"table5":              func(d time.Duration) error { return runTable5(d) },
		"fig9":                runFig9,
		"ablation-sequencer":  runAblationSequencer,
		"ablation-batchsize":  runAblationBatchSize,
		"ablation-gossip":     runAblationGossip,
		"ablation-tokencarry": runAblationTokenCarry,
		"ablation-flush":      runAblationFlush,
		"geo-visibility":      runGeoVisibility,
		"hyksos":              runHyksos,
		"failover":            runFailover,
		"readpath":            runReadPath,
		"overload":            runOverload,
		"tracelat":            runTraceLat,
		"scale":               func(d time.Duration) error { return runScale(*scenario, d) },
		"durability":          runDurability,
		"elastic":             runElastic,
	}
	order := []string{
		"fig7", "fig8", "table2", "table3", "table4", "table5", "fig9",
		"ablation-sequencer", "ablation-batchsize", "ablation-gossip",
		"ablation-tokencarry", "ablation-flush", "geo-visibility", "hyksos",
		"failover", "readpath", "overload", "tracelat", "scale", "durability",
		"elastic",
	}
	if *exp == "all" {
		for _, name := range order {
			if err := runners[name](*dur); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
				os.Exit(1)
			}
		}
		return
	}
	run, ok := runners[*exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; known: %s\n", *exp, strings.Join(order, ", "))
		os.Exit(2)
	}
	if err := run(*dur); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", *exp, err)
		os.Exit(1)
	}
}

func header(title, paper string) {
	fmt.Printf("\n=== %s ===\n", title)
	fmt.Printf("paper: %s\n\n", paper)
}

func runFig7(dur time.Duration) error {
	header("Figure 7 — single-maintainer load curve (public cloud)",
		"achieved throughput rises with the target, peaks ≈150K at target 150K, then declines to ≈120K under overload")
	targets := []float64{25_000, 50_000, 75_000, 100_000, 125_000, 150_000, 200_000, 250_000, 300_000}
	points, err := cluster.RunFigure7(cluster.PrivateCloud(), targets, dur)
	if err != nil {
		return err
	}
	tb := &metrics.Table{Header: []string{"Target (appends/s)", "Achieved (appends/s)"}}
	for _, p := range points {
		tb.AddRow(fmt.Sprintf("%.0fK", p.Target/1000), fmt.Sprintf("%.1fK", p.Achieved/1000))
	}
	fmt.Print(tb.String())
	return nil
}

func runFig8(dur time.Duration) error {
	header("Figure 8 — FLStore append throughput vs number of maintainers",
		"near-linear scaling: 10 maintainers reach ≈99.3% of perfect scaling (private), ≈99.9% (public@250K)")
	counts := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	series, err := cluster.RunFigure8(counts, dur)
	if err != nil {
		return err
	}
	tb := &metrics.Table{Header: []string{"Maintainers", series[0].Label, series[1].Label, series[2].Label}}
	for i, n := range counts {
		tb.AddRow(fmt.Sprint(n),
			fmt.Sprintf("%.0fK", series[0].Points[i].AchievedTotal/1000),
			fmt.Sprintf("%.0fK", series[1].Points[i].AchievedTotal/1000),
			fmt.Sprintf("%.0fK", series[2].Points[i].AchievedTotal/1000))
	}
	fmt.Print(tb.String())
	for _, s := range series {
		fmt.Printf("scaling efficiency (%s): %.1f%%\n", s.Label, 100*cluster.ScalingEfficiency(s))
	}
	return nil
}

var paperTables = map[int]string{
	2: "Client 129, Batcher 129, Filter 129, Maintainer 124, Store 132 (all ≈ equal; client-bound)",
	3: "Client 64.5+64.9, Batcher 126, Filter 125, Maintainer 123, Store 132 (batcher is the bottleneck)",
	4: "Client 64.9+64.1, Batcher 90.5+92.2, Filter 120, Maintainer 118, Store 121 (filter is the bottleneck)",
	5: "Client 115.5+117.6, Batcher 112.3+116.7, Filter 113.7+115.6, Maintainer 110.2+113.5, Store 115.4+119.8 (all stages double)",
}

func runTable(n, clients, batchers int, dur time.Duration) error {
	header(fmt.Sprintf("Table %d — Chariots pipeline, %d client(s), %d batcher(s), 1 of each other stage", n, clients, batchers),
		paperTables[n])
	res, err := cluster.RunPipeline(cluster.PipelineOptions{
		Profile: cluster.PrivateCloud(),
		Clients: clients, Batchers: batchers, Filters: 1, Queues: 1, Maintainers: 1,
		Duration: dur,
	})
	if err != nil {
		return err
	}
	fmt.Print(res.Table())
	fmt.Printf("bottleneck stage: %s\n", res.Bottleneck)
	return nil
}

func runTable5(dur time.Duration) error {
	header("Table 5 — Chariots pipeline, two machines per stage", paperTables[5])
	res, err := cluster.RunPipeline(cluster.PipelineOptions{
		Profile: cluster.PrivateCloud(),
		Clients: 2, Batchers: 2, Filters: 2, Queues: 2, Maintainers: 2,
		Duration: dur,
	})
	if err != nil {
		return err
	}
	fmt.Print(res.Table())
	return nil
}

func runFig9(dur time.Duration) error {
	header("Figure 9 — throughput timeseries (Table 4 configuration, fixed record count)",
		"clients/batchers finish early; the queue's throughput spikes once the filter stops receiving")
	profile := cluster.PrivateCloud()
	res, err := cluster.RunPipeline(cluster.PipelineOptions{
		Profile: profile,
		Clients: 2, Batchers: 2, Filters: 1, Queues: 1, Maintainers: 1,
		// The record count scales with the simulation so the drain
		// tail spans the same wall-clock shape on any host.
		Records:      uint64(600_000 / profile.ScaleFactor()),
		SampleWindow: 250 * time.Millisecond,
		// Deep buffering makes the drain tail visible: the batchers
		// finish absorbing early while the filter's inbox holds the
		// backlog, and once their transmissions end the filter's whole
		// NIC serves egress — the paper's abrupt queue increase.
		ChannelDepth: 1 << 21,
	})
	if err != nil {
		return err
	}
	names := []string{"Client 1", "Batcher 1", "Queue"}
	tb := &metrics.Table{Header: append([]string{"t (s)"}, names...)}
	maxLen := 0
	for _, name := range names {
		if len(res.Samples[name]) > maxLen {
			maxLen = len(res.Samples[name])
		}
	}
	for i := 0; i < maxLen; i++ {
		row := []string{fmt.Sprintf("%.2f", float64(i+1)*0.25)}
		for _, name := range names {
			samples := res.Samples[name]
			if i < len(samples) {
				row = append(row, fmt.Sprintf("%.0fK", samples[i].Rate/1000))
			} else {
				row = append(row, "-")
			}
		}
		tb.AddRow(row...)
	}
	fmt.Print(tb.String())
	fmt.Printf("total records: %d drained in %v\n", res.Applied, res.Elapsed.Round(10*time.Millisecond))
	return nil
}

func runAblationSequencer(dur time.Duration) error {
	header("Ablation — pre-assignment (CORFU-style sequencer) vs post-assignment (FLStore)",
		"motivating claim (§1, §5.2): the sequencer plateaus at one machine's capacity; FLStore scales with maintainers")
	points, err := cluster.RunSequencerVsFLStore(cluster.PrivateCloud(),
		[]int{1, 2, 4, 6, 8, 10}, 200_000, dur)
	if err != nil {
		return err
	}
	tb := &metrics.Table{Header: []string{"Machines", "Sequencer (appends/s)", "FLStore (appends/s)", "FLStore speedup"}}
	for _, p := range points {
		tb.AddRow(fmt.Sprint(p.Machines),
			fmt.Sprintf("%.0fK", p.Sequencer/1000),
			fmt.Sprintf("%.0fK", p.FLStore/1000),
			fmt.Sprintf("%.1fx", p.FLStore/p.Sequencer))
	}
	fmt.Print(tb.String())
	return nil
}

func runAblationBatchSize(dur time.Duration) error {
	header("Ablation — FLStore round size (placement batch)",
		"design choice §5.2: the deterministic round size does not gate append throughput (it changes head-of-log lag, not bandwidth)")
	// Throughput comparison across batch sizes at fixed scale.
	for _, batch := range []uint64{100, 1000, 10000} {
		res, err := cluster.RunFLStoreWithBatch(cluster.FLStoreOptions{
			Profile:         cluster.PrivateCloud(),
			Maintainers:     4,
			TargetPerClient: 125_000,
			Duration:        dur,
		}, batch)
		if err != nil {
			return err
		}
		fmt.Printf("batch %6d: %.0fK appends/s\n", batch, res.AchievedTotal/1000)
	}
	return nil
}

func runAblationGossip(dur time.Duration) error {
	header("Ablation — head-of-log gossip interval",
		"§5.4: gossip is fixed-size and off the append path; larger intervals raise read-visible head lag, not append cost")
	for _, interval := range []time.Duration{time.Millisecond, 10 * time.Millisecond, 50 * time.Millisecond} {
		lag, thr, err := cluster.RunGossipAblation(cluster.PrivateCloud(), 4, 100_000, interval, dur)
		if err != nil {
			return err
		}
		fmt.Printf("gossip %6s: throughput %.0fK appends/s, mean head lag %d records\n",
			interval, thr/1000, lag)
	}
	return nil
}

func runAblationTokenCarry(dur time.Duration) error {
	header("Ablation — deferred records: carried with the token vs parked at the queue",
		"§6.2 trade-off: carrying costs token I/O, parking delays dependent records until the token returns")
	for _, carry := range []bool{true, false} {
		lat, err := cluster.RunTokenCarryAblation(carry, dur)
		if err != nil {
			return err
		}
		fmt.Printf("carry=%-5v: mean dependent-record apply latency %v\n", carry, lat.Round(time.Microsecond))
	}
	return nil
}

func runAblationFlush(dur time.Duration) error {
	header("Ablation — batcher flush threshold",
		"§6.2 trade-off: batching amortizes transfer overhead (throughput under capacity limits is flat — the limiters, like real NICs, price records not packets) but a lone record waits for the flush trigger, so larger thresholds cost append latency")
	for _, thresh := range []int{1, 64, 512} {
		res, err := cluster.RunPipeline(cluster.PipelineOptions{
			Profile: cluster.PrivateCloud(),
			Clients: 1, Batchers: 1, Filters: 1, Queues: 1, Maintainers: 1,
			Duration:       dur,
			FlushThreshold: thresh,
		})
		if err != nil {
			return err
		}
		lat, err := cluster.RunFlushLatency(thresh, 2*time.Millisecond, 200)
		if err != nil {
			return err
		}
		fmt.Printf("flush %5d: client %.0fK appends/s, lone-append latency %v\n",
			thresh, res.StageTotals()["Client"]/1000, lat.Round(time.Microsecond))
	}
	return nil
}

func runGeoVisibility(dur time.Duration) error {
	header("Extension — causal visibility lag vs WAN delay",
		"not in the paper's evaluation: how long after a local append the record is applied at a peer; expected shape lag ≈ one-way delay + pipeline time")
	appends := int(dur / (40 * time.Millisecond))
	if appends < 10 {
		appends = 10
	}
	tb := &metrics.Table{Header: []string{"one-way delay", "mean visibility lag", "p99"}}
	for _, oneWay := range []time.Duration{0, 5 * time.Millisecond, 20 * time.Millisecond, 50 * time.Millisecond} {
		res, err := cluster.RunGeoVisibility(oneWay, appends)
		if err != nil {
			return err
		}
		tb.AddRow(oneWay.String(),
			res.Mean.Round(100*time.Microsecond).String(),
			res.P99.Round(100*time.Microsecond).String())
	}
	fmt.Print(tb.String())
	return nil
}

func runFailover(dur time.Duration) error {
	header("Extension — replicated maintainer kill/restart (ack policies)",
		"not in the paper's evaluation: availability through a maintainer failure under replica groups; appends must keep succeeding under majority/one, and the restarted member catches up")
	appends := int(dur / (2 * time.Millisecond))
	if appends < 100 {
		appends = 100
	}
	tb := &metrics.Table{Header: []string{"ack", "appends ok", "appends failed", "evicted", "catch-up recs", "head growth", "read failures", "append p99"}}
	for _, ack := range []replica.AckPolicy{replica.AckOne, replica.AckMajority} {
		res, err := cluster.RunFailover(cluster.FailoverOptions{
			Maintainers:     3,
			Replication:     3,
			Ack:             ack,
			Seed:            7,
			AppendsPerPhase: appends,
		})
		if err != nil {
			return err
		}
		ok := res.Appends[0] + res.Appends[1] + res.Appends[2] -
			res.FailedAppends[0] - res.FailedAppends[1] - res.FailedAppends[2]
		failed := res.FailedAppends[0] + res.FailedAppends[1] + res.FailedAppends[2]
		tb.AddRow(ack.String(),
			fmt.Sprintf("%d", ok),
			fmt.Sprintf("%d", failed),
			fmt.Sprintf("%v", res.Evicted),
			fmt.Sprintf("%d", res.CatchUpRecords),
			fmt.Sprintf("%d → %d", res.HeadAfterKill, res.HeadFinal),
			fmt.Sprintf("%d/%d", res.ReadFailures, res.ReadsChecked),
			res.AppendP99.Round(10*time.Microsecond).String())
	}
	fmt.Print(tb.String())
	return nil
}

func runHyksos(dur time.Duration) error {
	header("Extension — Hyksos key-value workload (§4.1 case study)",
		"not in the paper's evaluation: put/get/get-txn mix over a Zipf key space on one datacenter")
	for _, mix := range []struct {
		name string
		put  float64
	}{{"read-heavy (10% put)", 0.1}, {"balanced (50% put)", 0.5}} {
		res, err := cluster.RunHyksos(cluster.HyksosOptions{
			Sessions:    4,
			Keys:        200,
			PutFraction: mix.put,
			Duration:    dur,
			ZipfSkew:    1.2,
		})
		if err != nil {
			return err
		}
		fmt.Printf("%-22s %6.0f ops/s | put mean %v p99 %v | get mean %v p99 %v | get_txn mean %v\n",
			mix.name, res.OpsPerSec,
			res.PutMean.Round(10*time.Microsecond), res.PutP99.Round(10*time.Microsecond),
			res.GetMean.Round(10*time.Microsecond), res.GetP99.Round(10*time.Microsecond),
			res.TxnMean.Round(10*time.Microsecond))
	}
	return nil
}

func runReadPath(dur time.Duration) error {
	header("Extension — batched read path (push tail vs poll, range vs single reads)",
		"not in the paper's evaluation: closed-loop append→visible tail rate on the subscription path vs a 2 ms poll loop over the public read API, and bulk range reads vs single-record round trips")
	res, err := cluster.RunReadPath(cluster.ReadPathOptions{
		Maintainers: 3,
		Records:     10_000,
		Budget:      dur,
	})
	if err != nil {
		return err
	}
	fmt.Printf("tail  push %7.0f recs/s (%d recs) | poll %7.0f recs/s (%d recs) | speedup %.1fx (bar: >= 5x)\n",
		res.TailPushPerSec, res.TailPushRecords, res.TailPollPerSec, res.TailPollRecords, res.TailSpeedup)
	fmt.Printf("read  range %6.0f recs/s | single %6.0f recs/s | speedup %.1fx\n",
		res.RangeReadPerSec, res.SingleReadPerSec, res.RangeSpeedup)

	// Replica read-scaling sweep: the same hot range read with R=1..3
	// group members, every valid replica answering locally under the
	// invalidation protocol. Real TCP with one connection per maintainer
	// models fixed per-member serving capacity.
	points, err := cluster.RunReadScaling(cluster.ReadScalingOptions{
		Maintainers: 3,
		Budget:      dur / 2,
	})
	if err != nil {
		return err
	}
	res.ReadScaling = points
	for _, pt := range points {
		fmt.Printf("scale R=%d %7.0f reads/s (%d hot records)\n",
			pt.Replication, pt.ReadsPerSec, pt.Records)
	}
	if first, last := points[0], points[len(points)-1]; first.ReadsPerSec > 0 {
		res.ReadScalingX = last.ReadsPerSec / first.ReadsPerSec
	}
	fmt.Printf("scale R=%d -> R=%d aggregate read throughput %.1fx (bar: >= 2x)\n",
		points[0].Replication, points[len(points)-1].Replication, res.ReadScalingX)

	if err := cluster.WriteBench("BENCH_readpath.json", "readpath", res); err != nil {
		return err
	}
	fmt.Println("wrote BENCH_readpath.json")
	if res.TailSpeedup < 5 {
		return fmt.Errorf("tail speedup %.1fx below the 5x acceptance bar", res.TailSpeedup)
	}
	if res.ReadScalingX < 2 {
		return fmt.Errorf("read scaling %.1fx below the 2x acceptance bar", res.ReadScalingX)
	}
	return nil
}

func runTraceLat(dur time.Duration) error {
	header("Extension — stage-latency attribution from the flight recorder",
		"not in the paper's evaluation: force-sampled appends through the replicated FLStore and the Chariots pipeline; bar: recorded spans attribute >= 90% of the client-measured end-to-end append latency")
	appends := int(dur / (5 * time.Millisecond))
	if appends < 100 {
		appends = 100
	}
	res, err := cluster.RunTraceLat(cluster.TraceLatOptions{
		Maintainers: 3,
		Replication: 2,
		Appends:     appends,
	})
	if err != nil {
		return err
	}
	meanE2E := time.Duration(0)
	if res.Appends > 0 {
		meanE2E = time.Duration(res.MeasuredNs / int64(res.Appends))
	}
	fmt.Printf("appends %d | mean e2e %v | traces %d | span coverage %.1f%% of measured latency (bar: >= 90%%)\n",
		res.Appends, meanE2E.Round(time.Microsecond), res.Traces, 100*res.Coverage)
	tb := &metrics.Table{Header: []string{"stage", "total", "queue", "share"}}
	for _, row := range res.Stages {
		tb.AddRow(row.Stage,
			time.Duration(row.TotalNs).Round(time.Microsecond).String(),
			time.Duration(row.QueueNs).Round(time.Microsecond).String(),
			fmt.Sprintf("%.1f%%", 100*row.Share))
	}
	fmt.Print(tb.String())
	fmt.Printf("pipeline stages traced: %s\n", strings.Join(res.PipelineStages, ", "))
	if err := cluster.WriteBench("BENCH_trace.json", "trace", res); err != nil {
		return err
	}
	fmt.Println("wrote BENCH_trace.json")
	if res.Coverage < 0.90 {
		return fmt.Errorf("span coverage %.1f%% below the 90%% acceptance bar", 100*res.Coverage)
	}
	if !cluster.HasStages(res.AppendStages, "client.append", "rpc.call", "maint.store", "replica.ack") {
		return fmt.Errorf("append trace missing lifecycle stages: got %v", res.AppendStages)
	}
	if !cluster.HasStages(res.PipelineStages, "dc.append", "pipe.batch", "pipe.filter", "pipe.queue") {
		return fmt.Errorf("pipeline trace missing stages: got %v", res.PipelineStages)
	}
	return nil
}

func runOverload(dur time.Duration) error {
	header("Extension — end-to-end backpressure & admission control",
		"not in the paper's evaluation: 2x-saturating offered load with the pipeline credit bound + shed policy on vs the seed's unbounded ingress; bars: bounded in-flight records and bounded admitted-append p99 with admission on")
	res, err := cluster.RunOverload(cluster.OverloadOptions{Duration: dur / 2})
	if err != nil {
		return err
	}
	for _, arm := range []cluster.OverloadArm{res.On, res.Off} {
		mode := "off"
		if arm.Admission {
			mode = "on "
		}
		fmt.Printf("admission %s  offered %7d accepted %7d shed %7d | in-flight high water %6d | probe p50 %7.1fms p99 %7.1fms (%d probes, %d shed) | accept p50 %7.1fms p99 %7.1fms | applied %7.0f recs/s\n",
			mode, arm.Offered, arm.Accepted, arm.Shed, arm.CreditHighWater,
			arm.ProbeP50Ms, arm.ProbeP99Ms, arm.ProbeCount, arm.ProbeSheds,
			arm.AcceptP50Ms, arm.AcceptP99Ms, arm.AppliedPerSec)
	}
	fmt.Printf("high-water ratio (off/on) %.1fx | p99 ratio (off/on) %.1fx\n", res.HighWaterRatio, res.P99Ratio)
	if err := cluster.WriteBench("BENCH_overload.json", "overload", res); err != nil {
		return err
	}
	fmt.Println("wrote BENCH_overload.json")
	if res.On.CreditHighWater > res.Credits {
		return fmt.Errorf("admission-on in-flight high water %d exceeds the %d-credit bound", res.On.CreditHighWater, res.Credits)
	}
	if res.HighWaterRatio < 2 {
		return fmt.Errorf("in-flight high-water ratio %.1fx below the 2x acceptance bar (admission made no difference)", res.HighWaterRatio)
	}
	if res.On.ProbeP99Ms > 500 {
		return fmt.Errorf("admission-on probe p99 %.1fms above the 500ms bound", res.On.ProbeP99Ms)
	}
	if res.P99Ratio < 2 {
		return fmt.Errorf("p99 ratio %.1fx below the 2x acceptance bar (admission made no difference)", res.P99Ratio)
	}
	return nil
}

func runScale(scenario string, _ time.Duration) error {
	header("Extension — million-client scale harness (open-loop sessions over emulated WAN)",
		"not in the paper's evaluation: tens of thousands of concurrent open-loop sessions with coordinated-omission-safe latency, seeded WAN link profiles, and scripted partition/heal on one replayable event log; scenarios run at their declared full size regardless of -dur so the schedules stay reproducible")
	names := []string{"steady", "partition"}
	if scenario != "" {
		names = []string{scenario}
	}
	bench, err := cluster.RunScaleMatrix(names, scale.Options{Seed: 1})
	if err != nil {
		return err
	}
	tb := &metrics.Table{Header: []string{"scenario", "dcs", "sessions", "offered/s", "achieved/s", "p50", "p99", "p999", "shed", "converge", "wan evs", "log fp"}}
	for _, r := range bench.Scenarios {
		tb.AddRow(r.Scenario,
			fmt.Sprint(r.DCs),
			fmt.Sprint(r.Sessions),
			fmt.Sprintf("%.0f", r.OfferedPerSec),
			fmt.Sprintf("%.0f", r.AchievedPerSec),
			fmt.Sprintf("%.1fms", r.P50Ms),
			fmt.Sprintf("%.1fms", r.P99Ms),
			fmt.Sprintf("%.1fms", r.P999Ms),
			fmt.Sprint(r.ShedServer+r.ShedClient),
			fmt.Sprintf("%.0fms", r.ConvergeMs),
			fmt.Sprint(r.WANEvents),
			r.EventLogFingerprint)
	}
	fmt.Print(tb.String())
	for _, r := range bench.Scenarios {
		if r.Sessions < 10000 {
			return fmt.Errorf("scenario %s ran %d sessions, below the 10000-session acceptance floor", r.Scenario, r.Sessions)
		}
		if r.Completed == 0 {
			return fmt.Errorf("scenario %s completed no appends", r.Scenario)
		}
	}
	if err := cluster.WriteBench("BENCH_scale.json", "scale", bench); err != nil {
		return err
	}
	fmt.Println("wrote BENCH_scale.json")
	return nil
}

func runElastic(_ time.Duration) error {
	header("Extension — live elasticity (autoscaled epoch switchover under doubled load)",
		"§6.3 end-to-end, not in the paper's evaluation: mid-run the offered load doubles past the old member set's capacity, the autoscaler fires an online epoch switchover (seal → drain → pad → flip → background migration), and the run must finish with every acknowledged LId unique and readable, the old epoch dense to the boundary, and post-flip append p99 within max(50ms, 10x the pre-flip p99); phase durations are fixed so the capacity model stays reproducible regardless of -dur")
	res, err := cluster.RunElastic(cluster.ElasticOptions{})
	if res.AutoscaleTicks > 0 || err == nil {
		fmt.Printf("maintainers %d -> %d | boundary LId %d | epochs %d | autoscale ticks %d (grew=%v) | migrated %d records (done=%v) | seal retries %d\n",
			res.MaintainersBefore, res.MaintainersAfter, res.BoundaryLId, res.Epochs,
			res.AutoscaleTicks, res.GrowTriggered, res.RecordsMigrated, res.MigrationDone, res.SealRetries)
		fmt.Printf("appends before/during/after %d/%d/%d | p99 %.1f/%.1f/%.1f ms | unique %d dup %d lost %d | p99 bounded %v\n",
			res.AppendsBefore, res.AppendsDuring, res.AppendsAfter,
			res.P99BeforeMs, res.P99DuringMs, res.P99AfterMs,
			res.UniqueLIds, res.DuplicateLIds, res.LostLIds, res.P99Bounded)
	}
	if err != nil {
		return err
	}
	if werr := cluster.WriteBench("BENCH_elastic.json", "elastic", res); werr != nil {
		return werr
	}
	fmt.Println("wrote BENCH_elastic.json")
	return nil
}

func runDurability(dur time.Duration) error {
	header("Extension — durability tier (fsync-paced group commit + quorum durability acks)",
		"not in the paper's evaluation: open-loop appenders against one segment store under per-batch vs group-commit fsync (disk cost injected via the seeded fault controller), then an R=3 replica group with one follower disk slowed 20x under wait-all vs quorum-return acks; bars: group p99 <= 0.5x per-batch p99 at 64 appenders, quorum p99 with the slow disk <= 2x healthy")
	res, err := cluster.RunDurability(cluster.DurabilityOptions{Duration: dur})
	if err != nil {
		return err
	}
	tb := &metrics.Table{Header: []string{"appenders", "policy", "offered/s", "achieved/s", "p50", "p99", "fsyncs", "fsyncs/op"}}
	for _, a := range res.FsyncArms {
		tb.AddRow(fmt.Sprint(a.Appenders), a.Policy,
			fmt.Sprintf("%.0f", a.OfferedPerSec),
			fmt.Sprintf("%.0f", a.AchievedPerSec),
			fmt.Sprintf("%.2fms", a.P50Ms),
			fmt.Sprintf("%.2fms", a.P99Ms),
			fmt.Sprint(a.Fsyncs),
			fmt.Sprintf("%.3f", a.FsyncsPerOp))
	}
	fmt.Print(tb.String())
	fmt.Printf("group/each p99 at max appenders %.2fx (bar: <= 0.5x)\n", res.GroupP99Ratio64)
	qb := &metrics.Table{Header: []string{"arm", "ack", "quorum fanout", "slow member", "achieved/s", "p50", "p99", "durable lag"}}
	for _, a := range res.QuorumArms {
		slow := "-"
		if a.SlowMember >= 0 {
			slow = fmt.Sprintf("m%d (%dx disk)", a.SlowMember, res.SlowFactor)
		}
		qb.AddRow(a.Name, a.Ack, fmt.Sprint(a.QuorumFanout), slow,
			fmt.Sprintf("%.0f", a.AchievedPerSec),
			fmt.Sprintf("%.2fms", a.P50Ms),
			fmt.Sprintf("%.2fms", a.P99Ms),
			fmt.Sprint(a.SlowDurableLag))
	}
	fmt.Print(qb.String())
	fmt.Printf("slow-disk p99 vs healthy: quorum %.2fx (bar: <= 2x) | wait-all %.2fx\n",
		res.QuorumSlowP99Ratio, res.AllAckSlowP99Ratio)
	if err := cluster.WriteBench("BENCH_durability.json", "durability", res); err != nil {
		return err
	}
	fmt.Println("wrote BENCH_durability.json")
	if res.GroupP99Ratio64 > 0.5 {
		return fmt.Errorf("group-commit p99 %.2fx of per-batch baseline at max appenders, above the 0.5x acceptance bar", res.GroupP99Ratio64)
	}
	if res.QuorumSlowP99Ratio > 2 {
		return fmt.Errorf("quorum p99 with a slow disk %.2fx of healthy, above the 2x acceptance bar", res.QuorumSlowP99Ratio)
	}
	return nil
}
