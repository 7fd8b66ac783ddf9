package cluster

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/replica"
)

// Kind says what an experiment's numbers are; the two are never mixed in
// one entry.
type Kind string

const (
	// Modelled results run behind Profile capacity limiters and are
	// reported in paper units (scaled back by Profile.Scale): the
	// paper-figure reproductions, whose claims are shapes and ratios.
	Modelled Kind = "modelled"
	// Measured results are wall-clock numbers of this code on this host.
	// Where a cost is injected (fsync delay, WAN delay, per-read service
	// time, a stage cap) it is a stated parameter of the experiment, not a
	// scaling of its result.
	Measured Kind = "measured"
)

// Experiment is one entry of the evaluation: what `repro -exp Name` runs
// and what BenchmarkExperiments/Name reports.
type Experiment struct {
	Name  string
	Title string
	// Claim is what the paper reports, or for extensions what the run is
	// expected to show.
	Claim string
	Kind  Kind
	// Artifact names the bench whose BENCH_<Artifact>.json the run's
	// Report.Data is written to ("" = none).
	Artifact string
	// run fills rep from one execution; see Run.
	run func(window time.Duration, rep *Report) error
}

// Run executes the experiment with the given steady-state window per
// measured point. The report returned beside an error carries what was
// measured before the failure.
func (e Experiment) Run(window time.Duration) (*Report, error) {
	rep := &Report{}
	err := e.run(window, rep)
	return rep, err
}

// ArtifactPath is the file Artifact is written to.
func (e Experiment) ArtifactPath() string { return "BENCH_" + e.Artifact + ".json" }

// LookupExperiment finds a table entry by name.
func LookupExperiment(name string) (Experiment, bool) {
	for _, e := range Experiments {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// kilo prints a rate the way the paper's figures label them.
func kilo(perSec float64) string { return fmt.Sprintf("%.0fK", perSec/1000) }

// b2f lets a yes/no acceptance condition stand as a bar (want >= 1).
func b2f(ok bool) float64 {
	if ok {
		return 1
	}
	return 0
}

// Experiments is the evaluation, in the order `repro -exp all` runs it.
var Experiments = []Experiment{
	{
		Name: "fig7", Kind: Modelled,
		Title: "Figure 7 — single-maintainer load curve (public cloud)",
		Claim: "achieved throughput rises with the target, peaks ≈150K at target 150K, then declines to ≈120K under overload",
		run: func(d time.Duration, rep *Report) error {
			targets := []float64{25_000, 50_000, 75_000, 100_000, 125_000, 150_000, 200_000, 250_000, 300_000}
			points, err := RunFigure7(PrivateCloud(), targets, d)
			if err != nil {
				return err
			}
			tb := &metrics.Table{Header: []string{"Target (appends/s)", "Achieved (appends/s)"}}
			for _, p := range points {
				tb.AddRow(kilo(p.TargetPerClient), metrics.FormatRate(p.AchievedTotal))
				rep.Metric("achieved@"+kilo(p.TargetPerClient)+"-appends/s", p.AchievedTotal)
			}
			rep.Printf("%s", tb)
			return nil
		},
	},
	{
		Name: "fig8", Kind: Modelled,
		Title: "Figure 8 — FLStore append throughput vs number of maintainers",
		Claim: "near-linear scaling: 10 maintainers reach ≈99.3% of perfect scaling (private), ≈99.9% (public@250K)",
		run: func(d time.Duration, rep *Report) error {
			counts := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
			series, err := RunFigure8(counts, d)
			if err != nil {
				return err
			}
			tb := &metrics.Table{Header: []string{"Maintainers", series[0].Label, series[1].Label, series[2].Label}}
			for i, n := range counts {
				tb.AddRow(fmt.Sprint(n), kilo(series[0].Points[i].AchievedTotal),
					kilo(series[1].Points[i].AchievedTotal), kilo(series[2].Points[i].AchievedTotal))
			}
			rep.Printf("%s", tb)
			for _, s := range series {
				rep.Printf("scaling efficiency (%s): %.1f%%\n", s.Label, 100*ScalingEfficiency(s))
				rep.Metric("efficiency/"+s.Label, ScalingEfficiency(s))
				rep.Metric("appends/s@10/"+s.Label, s.Points[len(counts)-1].AchievedTotal)
			}
			return nil
		},
	},
	pipelineTable(2, PipelineOptions{Clients: 1, Batchers: 1, Filters: 1, Queues: 1},
		"Client 129, Batcher 129, Filter 129, Maintainer 124, Store 132 (all ≈ equal; client-bound)"),
	pipelineTable(3, PipelineOptions{Clients: 2, Batchers: 1, Filters: 1, Queues: 1},
		"Client 64.5+64.9, Batcher 126, Filter 125, Maintainer 123, Store 132 (batcher is the bottleneck)"),
	pipelineTable(4, PipelineOptions{Clients: 2, Batchers: 2, Filters: 1, Queues: 1},
		"Client 64.9+64.1, Batcher 90.5+92.2, Filter 120, Maintainer 118, Store 121 (filter is the bottleneck)"),
	pipelineTable(5, PipelineOptions{Clients: 2, Batchers: 2, Filters: 2, Queues: 2},
		"Client 115.5+117.6, Batcher 112.3+116.7, Filter 113.7+115.6, Maintainer 110.2+113.5, Store 115.4+119.8 (all stages double)"),
	{
		Name: "fig9", Kind: Modelled,
		Title: "Figure 9 — throughput timeseries (Table 4 configuration, fixed record count)",
		Claim: "clients/batchers finish early; the queue's throughput spikes once the filter stops receiving",
		run: func(_ time.Duration, rep *Report) error {
			const window = 250 * time.Millisecond
			profile := PrivateCloud()
			res, err := RunPipeline(PipelineOptions{
				Profile: profile,
				Clients: 2, Batchers: 2, Filters: 1, Queues: 1,
				// The record count scales with the simulation so the drain
				// tail spans the same wall-clock shape on any host.
				Records:      uint64(600_000 / profile.ScaleFactor()),
				SampleWindow: window,
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
			rows := 0
			for _, name := range names {
				rows = max(rows, len(res.Samples[name]))
			}
			for i := 0; i < rows; i++ {
				row := []string{fmt.Sprintf("%.2f", float64(i+1)*window.Seconds())}
				for _, name := range names {
					if samples := res.Samples[name]; i < len(samples) {
						row = append(row, kilo(samples[i].Rate))
					} else {
						row = append(row, "-")
					}
				}
				tb.AddRow(row...)
			}
			rep.Printf("%s", tb)
			rep.Printf("total records: %d drained in %v\n", res.Applied, res.Elapsed.Round(10*time.Millisecond))
			steady, spike := res.QueueSpike()
			rep.Metric("queue-steady-appends/s", steady)
			rep.Metric("queue-after-spike-appends/s", spike)
			return nil
		},
	},
	{
		Name: "ablation-sequencer", Kind: Modelled,
		Title: "Ablation — pre-assignment (CORFU-style sequencer) vs post-assignment (FLStore)",
		Claim: "motivating claim (§1, §5.2): the sequencer plateaus at one machine's capacity; FLStore scales with maintainers",
		run: func(d time.Duration, rep *Report) error {
			points, err := RunSequencerVsFLStore(PrivateCloud(), []int{1, 2, 4, 6, 8, 10}, 200_000, d)
			if err != nil {
				return err
			}
			tb := &metrics.Table{Header: []string{"Machines", "Sequencer (appends/s)", "FLStore (appends/s)", "FLStore speedup"}}
			for _, p := range points {
				tb.AddRow(fmt.Sprint(p.Machines), kilo(p.Sequencer), kilo(p.FLStore), fmt.Sprintf("%.1fx", p.FLStore/p.Sequencer))
				rep.Metric(fmt.Sprintf("flstore-speedup@%d", p.Machines), p.FLStore/p.Sequencer)
			}
			rep.Printf("%s", tb)
			return nil
		},
	},
	{
		Name: "ablation-batchsize", Kind: Modelled,
		Title: "Ablation — FLStore round size (placement batch)",
		Claim: "design choice §5.2: the deterministic round size does not gate append throughput (it changes head-of-log lag, not bandwidth)",
		run: func(d time.Duration, rep *Report) error {
			for _, round := range []uint64{100, 1000, 10000} {
				res, err := RunFLStore(FLStoreOptions{
					Profile: PrivateCloud(), Maintainers: 4, TargetPerClient: 125_000, Duration: d, Round: round,
				})
				if err != nil {
					return err
				}
				rep.Printf("batch %6d: %s appends/s\n", round, kilo(res.AchievedTotal))
				rep.Metric(fmt.Sprintf("appends/s@round=%d", round), res.AchievedTotal)
			}
			return nil
		},
	},
	{
		Name: "ablation-gossip", Kind: Modelled,
		Title: "Ablation — head-of-log gossip interval",
		Claim: "§5.4: gossip is fixed-size and off the append path; larger intervals raise read-visible head lag, not append cost",
		run: func(d time.Duration, rep *Report) error {
			for _, interval := range []time.Duration{time.Millisecond, 10 * time.Millisecond, 50 * time.Millisecond} {
				lag, thr, err := RunGossipAblation(PrivateCloud(), 4, 100_000, interval, d)
				if err != nil {
					return err
				}
				rep.Printf("gossip %6s: throughput %s appends/s, mean head lag %d records\n", interval, kilo(thr), lag)
				rep.Metric(fmt.Sprintf("head-lag-records@%s", interval), float64(lag))
				rep.Metric(fmt.Sprintf("appends/s@%s", interval), thr)
			}
			return nil
		},
	},
	{
		Name: "ablation-tokencarry", Kind: Measured,
		Title: "Ablation — deferred records: carried with the token vs parked at the queue",
		Claim: "§6.2 trade-off: carrying costs token I/O, parking delays dependent records until the token returns",
		run: func(d time.Duration, rep *Report) error {
			for _, carry := range []bool{true, false} {
				lat, err := RunTokenCarryAblation(carry, d)
				if err != nil {
					return err
				}
				rep.Printf("carry=%-5v: mean dependent-record apply latency %v\n", carry, lat.Round(time.Microsecond))
				rep.Metric(fmt.Sprintf("dependent-apply-us@carry=%v", carry), float64(lat.Microseconds()))
			}
			return nil
		},
	},
	{
		Name: "ablation-flush", Kind: Modelled,
		Title: "Ablation — batcher flush threshold",
		Claim: "§6.2 trade-off, without its latency half: batching amortizes transfer overhead (throughput under capacity limits is flat — the limiters, like real NICs, price records not packets), and because a batcher hands on whatever it holds when its inbox runs dry, the threshold is only a ceiling: a lone record's append latency is the same at every threshold (slowest / fastest mean <= 2)",
		run: func(d time.Duration, rep *Report) error {
			var fastest, slowest time.Duration
			for _, thresh := range []int{1, 64, 512} {
				res, err := RunPipeline(PipelineOptions{
					Profile: PrivateCloud(),
					Clients: 1, Batchers: 1, Filters: 1, Queues: 1,
					Duration: d, FlushThreshold: thresh,
				})
				if err != nil {
					return err
				}
				lat, err := RunFlushLatency(thresh)
				if err != nil {
					return err
				}
				client := res.StageTotals()["Client"]
				rep.Printf("flush %5d: client %s appends/s, lone-append latency %v\n", thresh, kilo(client), lat.Round(time.Microsecond))
				rep.Metric(fmt.Sprintf("client-appends/s@flush=%d", thresh), client)
				rep.Metric(fmt.Sprintf("lone-append-us@flush=%d", thresh), float64(lat.Microseconds()))
				if fastest == 0 || lat < fastest {
					fastest = lat
				}
				slowest = max(slowest, lat)
			}
			rep.Bar("lone-append latency, slowest / fastest threshold", float64(slowest)/float64(fastest), "<=", 2)
			return nil
		},
	},
	{
		Name: "geo-visibility", Kind: Measured,
		Title: "Extension — causal visibility lag vs WAN delay",
		Claim: "not in the paper's evaluation: how long after a local append the record is applied at a peer; expected shape lag ≈ one-way delay + pipeline time",
		run: func(d time.Duration, rep *Report) error {
			tb := &metrics.Table{Header: []string{"one-way delay", "mean visibility lag", "p99"}}
			for _, oneWay := range []time.Duration{0, 5 * time.Millisecond, 20 * time.Millisecond, 50 * time.Millisecond} {
				res, err := RunGeoVisibility(oneWay, max(10, int(d/(40*time.Millisecond))))
				if err != nil {
					return err
				}
				tb.AddRow(oneWay.String(), res.Mean.Round(100*time.Microsecond).String(), res.P99.Round(100*time.Microsecond).String())
				rep.Metric(fmt.Sprintf("visibility-ms@%s", oneWay), ms(res.Mean))
			}
			rep.Printf("%s", tb)
			return nil
		},
	},
	{
		Name: "hyksos", Kind: Measured,
		Title: "Extension — Hyksos key-value workload (§4.1 case study)",
		Claim: "not in the paper's evaluation: put/get/get-txn mix over a Zipf key space on one datacenter",
		run: func(d time.Duration, rep *Report) error {
			for _, mix := range []struct {
				name string
				put  float64
			}{{"read-heavy (10% put)", 0.1}, {"balanced (50% put)", 0.5}} {
				res, err := RunHyksos(HyksosOptions{Sessions: 4, Keys: 200, PutFraction: mix.put, Duration: d})
				if err != nil {
					return err
				}
				rep.Printf("%-22s %6.0f ops/s | put mean %v p99 %v | get mean %v p99 %v | get_txn mean %v\n",
					mix.name, res.OpsPerSec,
					res.PutMean.Round(10*time.Microsecond), res.PutP99.Round(10*time.Microsecond),
					res.GetMean.Round(10*time.Microsecond), res.GetP99.Round(10*time.Microsecond),
					res.TxnMean.Round(10*time.Microsecond))
				rep.Metric(fmt.Sprintf("ops/s@put=%.0f%%", 100*mix.put), res.OpsPerSec)
			}
			return nil
		},
	},
	{
		Name: "failover", Kind: Measured,
		Title: "Extension — replicated maintainer kill/restart (ack policies)",
		Claim: "not in the paper's evaluation: availability through a maintainer failure under replica groups; appends must keep succeeding under majority/one, and the restarted member catches up",
		run: func(d time.Duration, rep *Report) error {
			tb := &metrics.Table{Header: []string{"ack", "appends ok", "appends failed", "evicted", "catch-up recs", "head growth", "read failures", "append p99"}}
			for _, ack := range []replica.AckPolicy{replica.AckOne, replica.AckMajority} {
				res, err := RunFailover(FailoverOptions{Ack: ack, AppendsPerPhase: max(100, int(d/(2*time.Millisecond)))})
				if err != nil {
					return err
				}
				failed := res.FailedAppends[0] + res.FailedAppends[1] + res.FailedAppends[2]
				tb.AddRow(ack.String(),
					fmt.Sprint(res.Appends[0]+res.Appends[1]+res.Appends[2]-failed),
					fmt.Sprint(failed),
					fmt.Sprint(res.Evicted),
					fmt.Sprint(res.CatchUpRecords),
					fmt.Sprintf("%d → %d", res.HeadAfterKill, res.HeadFinal),
					fmt.Sprintf("%d/%d", res.ReadFailures, res.ReadsChecked),
					res.AppendP99.Round(10*time.Microsecond).String())
				rep.Metric("failed-appends@ack="+ack.String(), float64(failed))
				rep.Metric("append-p99-us@ack="+ack.String(), float64(res.AppendP99.Microseconds()))
			}
			rep.Printf("%s", tb)
			return nil
		},
	},
	{
		Name: "readpath", Kind: Measured, Artifact: "readpath",
		Title: "Extension — batched read path (push tail vs poll, range vs single reads)",
		Claim: "not in the paper's evaluation: closed-loop append→visible tail rate on the subscription path vs a 2 ms poll loop over the public read API, bulk range reads vs single-record round trips, and aggregate hot-range read throughput as the replica group grows (members paced at a stated 100µs service time per read)",
		run: func(d time.Duration, rep *Report) error {
			res, err := RunReadPath(d)
			if err != nil {
				return err
			}
			rep.Data = &res
			rep.Printf("tail  push %7.0f recs/s (%d recs) | poll %7.0f recs/s (%d recs) | speedup %.1fx (bar: >= 5x)\n",
				res.TailPushPerSec, res.TailPushRecords, res.TailPollPerSec, res.TailPollRecords, res.TailSpeedup)
			rep.Printf("read  range %6.0f recs/s | single %6.0f recs/s | speedup %.1fx\n",
				res.RangeReadPerSec, res.SingleReadPerSec, res.RangeSpeedup)

			// Replica read-scaling sweep: the same hot range read with R=1..3
			// group members, every valid replica answering locally under the
			// invalidation protocol.
			res.ReadScaling, err = RunReadScaling(ReadScalingOptions{
				BatchSize: 8, Records: 3_000, Readers: 16, Budget: d / 2, Replicas: []int{1, 2, 3},
			})
			if err != nil {
				return err
			}
			for _, pt := range res.ReadScaling {
				rep.Printf("scale R=%d %7.0f reads/s (%d hot records)\n", pt.Replication, pt.ReadsPerSec, pt.Records)
			}
			first, last := res.ReadScaling[0], res.ReadScaling[len(res.ReadScaling)-1]
			if first.ReadsPerSec > 0 {
				res.ReadScalingX = last.ReadsPerSec / first.ReadsPerSec
			}
			rep.Printf("scale R=%d -> R=%d aggregate read throughput %.1fx (bar: >= 2x)\n",
				first.Replication, last.Replication, res.ReadScalingX)
			rep.Metric("tail-speedup-x", res.TailSpeedup)
			rep.Metric("range-speedup-x", res.RangeSpeedup)
			rep.Metric("read-scaling-x", res.ReadScalingX)
			rep.Bar("push/poll tail speedup", res.TailSpeedup, ">=", 5)
			rep.Bar("R=1 -> R=3 read scaling", res.ReadScalingX, ">=", 2)
			return nil
		},
	},
	{
		Name: "overload", Kind: Measured, Artifact: "overload",
		Title: "Extension — end-to-end backpressure & admission control",
		Claim: "not in the paper's evaluation: 2x-saturating offered load with the pipeline credit bound + shed policy on vs the seed's unbounded ingress; bars: bounded in-flight records and bounded admitted-append p99 with admission on",
		run: func(d time.Duration, rep *Report) error {
			res, err := RunOverload(d / 2)
			if err != nil {
				return err
			}
			rep.Data = res
			for _, arm := range []OverloadArm{res.On, res.Off} {
				mode := "off"
				if arm.Admission {
					mode = "on "
				}
				rep.Printf("admission %s  offered %7d accepted %7d shed %7d | in-flight high water %6d | probe p50 %7.1fms p99 %7.1fms (%d probes, %d shed) | accept p50 %7.1fms p99 %7.1fms | applied %7.0f recs/s\n",
					mode, arm.Offered, arm.Accepted, arm.Shed, arm.CreditHighWater,
					arm.ProbeP50Ms, arm.ProbeP99Ms, arm.ProbeCount, arm.ProbeSheds,
					arm.AcceptP50Ms, arm.AcceptP99Ms, arm.AppliedPerSec)
			}
			rep.Printf("high-water ratio (off/on) %.1fx | p99 ratio (off/on) %.1fx\n", res.HighWaterRatio, res.P99Ratio)
			rep.Metric("high-water-ratio-x", res.HighWaterRatio)
			rep.Metric("probe-p99-ratio-x", res.P99Ratio)
			rep.Bar("admission-on in-flight high water vs the credit bound (records)", float64(res.On.CreditHighWater), "<=", float64(res.Credits))
			rep.Bar("in-flight high-water ratio off/on", res.HighWaterRatio, ">=", 2)
			rep.Bar("admission-on probe p99 (ms)", res.On.ProbeP99Ms, "<=", 500)
			rep.Bar("probe p99 ratio off/on", res.P99Ratio, ">=", 2)
			return nil
		},
	},
	{
		Name: "tracelat", Kind: Measured, Artifact: "trace",
		Title: "Extension — stage-latency attribution from the flight recorder",
		Claim: "not in the paper's evaluation: force-sampled appends through the replicated FLStore and the Chariots pipeline; bar: recorded spans attribute >= 90% of the client-measured end-to-end append latency",
		run: func(d time.Duration, rep *Report) error {
			res, err := RunTraceLat(max(100, int(d/(5*time.Millisecond))))
			if err != nil {
				return err
			}
			rep.Data = res
			rep.Printf("appends %d | mean e2e %v | traces %d | span coverage %.1f%% of measured latency (bar: >= 90%%)\n",
				res.Appends, time.Duration(res.MeasuredNs/int64(res.Appends)).Round(time.Microsecond), res.Traces, 100*res.Coverage)
			tb := &metrics.Table{Header: []string{"stage", "total", "queue", "share"}}
			for _, row := range res.Stages {
				tb.AddRow(row.Stage,
					time.Duration(row.TotalNs).Round(time.Microsecond).String(),
					time.Duration(row.QueueNs).Round(time.Microsecond).String(),
					fmt.Sprintf("%.1f%%", 100*row.Share))
			}
			rep.Printf("%s", tb)
			rep.Printf("append stages traced: %s\n", strings.Join(res.AppendStages, ", "))
			rep.Printf("pipeline stages traced: %s\n", strings.Join(res.PipelineStages, ", "))
			rep.Metric("span-coverage", res.Coverage)
			rep.Bar("span coverage of measured append latency", res.Coverage, ">=", 0.90)
			rep.Bar("append trace reaches client.append, rpc.call, maint.store, replica.ack",
				b2f(HasStages(res.AppendStages, "client.append", "rpc.call", "maint.store", "replica.ack")), ">=", 1)
			rep.Bar("pipeline trace reaches dc.append, pipe.batch, pipe.filter, pipe.queue",
				b2f(HasStages(res.PipelineStages, "dc.append", "pipe.batch", "pipe.filter", "pipe.queue")), ">=", 1)
			return nil
		},
	},
	ScaleExperiment("steady", "partition"),
	{
		Name: "durability", Kind: Measured, Artifact: "durability",
		Title: "Extension — durability tier (fsync-paced group commit + quorum durability acks)",
		Claim: "not in the paper's evaluation: open-loop appenders against one segment store under per-batch vs group-commit fsync (disk cost injected via the seeded fault controller), then an R=3 replica group with one follower disk slowed 20x under wait-all vs quorum-return acks; bars: group p99 <= 0.5x per-batch p99 at 64 appenders, quorum p99 with the slow disk <= 2x healthy",
		run: func(d time.Duration, rep *Report) error {
			res, err := RunDurability(DurabilityOptions{
				Appenders: []int{1, 8, 64}, PerAppenderPerSec: 25, Duration: d, SlowFactor: 20, Seed: 1,
			})
			if err != nil {
				return err
			}
			rep.Data = res
			msf := func(v float64) string { return fmt.Sprintf("%.2fms", v) }
			tb := &metrics.Table{Header: []string{"appenders", "policy", "offered/s", "achieved/s", "p50", "p99", "fsyncs", "fsyncs/op"}}
			for _, a := range res.FsyncArms {
				tb.AddRow(fmt.Sprint(a.Appenders), a.Policy,
					fmt.Sprintf("%.0f", a.OfferedPerSec), fmt.Sprintf("%.0f", a.AchievedPerSec),
					msf(a.P50Ms), msf(a.P99Ms), fmt.Sprint(a.Fsyncs), fmt.Sprintf("%.3f", a.FsyncsPerOp))
			}
			rep.Printf("%s", tb)
			rep.Printf("group/each p99 at max appenders %.2fx (bar: <= 0.5x)\n", res.GroupP99Ratio64)
			qb := &metrics.Table{Header: []string{"arm", "ack", "quorum fanout", "slow member", "achieved/s", "p50", "p99", "durable lag"}}
			for _, a := range res.QuorumArms {
				slow := "-"
				if a.SlowMember >= 0 {
					slow = fmt.Sprintf("m%d (%dx disk)", a.SlowMember, res.SlowFactor)
				}
				qb.AddRow(a.Name, a.Ack, fmt.Sprint(a.QuorumFanout), slow,
					fmt.Sprintf("%.0f", a.AchievedPerSec), msf(a.P50Ms), msf(a.P99Ms), fmt.Sprint(a.SlowDurableLag))
			}
			rep.Printf("%s", qb)
			rep.Printf("slow-disk p99 vs healthy: quorum %.2fx (bar: <= 2x) | wait-all %.2fx\n",
				res.QuorumSlowP99Ratio, res.AllAckSlowP99Ratio)
			rep.Metric("group/each-p99-ratio", res.GroupP99Ratio64)
			rep.Metric("quorum-slow/healthy-p99-ratio", res.QuorumSlowP99Ratio)
			rep.Bar("group-commit p99 / per-batch p99 at max appenders", res.GroupP99Ratio64, "<=", 0.5)
			rep.Bar("quorum p99 with a slow disk / healthy", res.QuorumSlowP99Ratio, "<=", 2)
			return nil
		},
	},
	{
		Name: "elastic", Kind: Measured, Artifact: "elastic",
		Title: "Extension — live elasticity (autoscaled epoch switchover under doubled load)",
		Claim: "§6.3 end-to-end, not in the paper's evaluation: mid-run the offered load doubles past the old member set's capacity, the autoscaler fires an online epoch switchover (seal → drain → pad → flip → background migration), and the run must finish with every acknowledged LId unique and readable, the old epoch dense to the boundary, and post-flip append p99 within max(50ms, 10x the pre-flip p99); phase durations are fixed so the capacity model stays reproducible regardless of -dur",
		run: func(_ time.Duration, rep *Report) error {
			res, err := RunElastic(FullElastic)
			rep.Data = res
			if res.AutoscaleTicks > 0 || err == nil {
				rep.Printf("maintainers %d -> %d | boundary LId %d | epochs %d | autoscale ticks %d (grew=%v) | migrated %d records (done=%v) | seal retries %d\n",
					res.MaintainersBefore, res.MaintainersAfter, res.BoundaryLId, res.Epochs,
					res.AutoscaleTicks, res.GrowTriggered, res.RecordsMigrated, res.MigrationDone, res.SealRetries)
				rep.Printf("appends before/during/after %d/%d/%d | p99 %.1f/%.1f/%.1f ms | unique %d dup %d lost %d | p99 bounded %v\n",
					res.AppendsBefore, res.AppendsDuring, res.AppendsAfter,
					res.P99BeforeMs, res.P99DuringMs, res.P99AfterMs,
					res.UniqueLIds, res.DuplicateLIds, res.LostLIds, res.P99Bounded)
			}
			rep.Metric("p99-after-ms", res.P99AfterMs)
			rep.Metric("records-migrated", float64(res.RecordsMigrated))
			return err
		},
	},
}

// pipelineTable is the entry for one of Tables 2–5: machines per stage as
// given, on the private-cloud profile.
func pipelineTable(n int, stages PipelineOptions, paper string) Experiment {
	title := fmt.Sprintf("Table %d — Chariots pipeline, %d client(s), %d batcher(s), 1 of each other stage", n, stages.Clients, stages.Batchers)
	if stages.Queues > 1 {
		title = fmt.Sprintf("Table %d — Chariots pipeline, two machines per stage", n)
	}
	return Experiment{
		Name: fmt.Sprintf("table%d", n), Kind: Modelled, Title: title, Claim: paper,
		run: func(d time.Duration, rep *Report) error {
			opts := stages
			opts.Profile, opts.Duration = PrivateCloud(), d
			res, err := RunPipeline(opts)
			if err != nil {
				return err
			}
			rep.Printf("%s", res.Table())
			rep.Printf("bottleneck stage: %s\n", res.Bottleneck)
			totals := res.StageTotals()
			rep.Metric("client-appends/s", totals["Client"])
			rep.Metric("bottleneck-appends/s", totals[res.Bottleneck])
			return nil
		},
	}
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
			bench, err := RunScaleMatrix(scenarios)
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
