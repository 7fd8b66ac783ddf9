package cluster

import (
	"fmt"
	"time"
)

// Kind says what an experiment's numbers are; the two are never mixed in
// one entry.
type Kind string

const (
	// Modelled results run behind profile capacity limiters and are
	// reported in paper units (scaled back by profile.Scale): the
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
	// run is the whole experiment: it stands the deployment up, drives it,
	// fails on any invariant the run must hold, and fills rep. d is its only
	// size: every other size is a constant of the experiment or derived
	// from d. See Run.
	run func(d time.Duration, rep *Report) error
}

// Run executes the experiment at size d — repro's -dur, the steady-state
// window per measured point. The report returned beside an error carries
// what was measured before the failure.
func (e Experiment) Run(d time.Duration) (*Report, error) {
	rep := &Report{}
	err := e.run(d, rep)
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
		Name: "fig7", Kind: Modelled, run: fig7,
		Title: "Figure 7 — single-maintainer load curve (public cloud)",
		Claim: "achieved throughput rises with the target, peaks ≈150K at target 150K, then declines to ≈120K under overload",
	},
	{
		Name: "fig8", Kind: Modelled, run: fig8,
		Title: "Figure 8 — FLStore append throughput vs number of maintainers",
		Claim: "near-linear scaling: 10 maintainers reach ≈99.3% of perfect scaling (private), ≈99.9% (public@250K)",
	},
	{
		Name: "table2", Kind: Modelled, run: stages{1, 1, 1, 1}.table,
		Title: "Table 2 — Chariots pipeline, 1 client(s), 1 batcher(s), 1 of each other stage",
		Claim: "Client 129, Batcher 129, Filter 129, Maintainer 124, Store 132 (all ≈ equal; client-bound)",
	},
	{
		Name: "table3", Kind: Modelled, run: stages{2, 1, 1, 1}.table,
		Title: "Table 3 — Chariots pipeline, 2 client(s), 1 batcher(s), 1 of each other stage",
		Claim: "Client 64.5+64.9, Batcher 126, Filter 125, Maintainer 123, Store 132 (batcher is the bottleneck)",
	},
	{
		Name: "table4", Kind: Modelled, run: stages{2, 2, 1, 1}.table,
		Title: "Table 4 — Chariots pipeline, 2 client(s), 2 batcher(s), 1 of each other stage",
		Claim: "Client 64.9+64.1, Batcher 90.5+92.2, Filter 120, Maintainer 118, Store 121 (filter is the bottleneck)",
	},
	{
		Name: "table5", Kind: Modelled, run: stages{2, 2, 2, 2}.table,
		Title: "Table 5 — Chariots pipeline, two machines per stage",
		Claim: "Client 115.5+117.6, Batcher 112.3+116.7, Filter 113.7+115.6, Maintainer 110.2+113.5, Store 115.4+119.8 (all stages double)",
	},
	{
		Name: "fig9", Kind: Modelled, run: fig9,
		Title: "Figure 9 — throughput timeseries (Table 4 configuration, fixed record count)",
		Claim: "clients/batchers finish early; the queue's throughput spikes once the filter stops receiving",
	},
	{
		Name: "ablation-sequencer", Kind: Modelled, run: sequencerAblation,
		Title: "Ablation — pre-assignment (CORFU-style sequencer) vs post-assignment (FLStore)",
		Claim: "motivating claim (§1, §5.2): the sequencer plateaus at one machine's capacity; FLStore scales with maintainers",
	},
	{
		Name: "ablation-batchsize", Kind: Modelled, run: batchsizeAblation,
		Title: "Ablation — FLStore round size (placement batch)",
		Claim: "design choice §5.2: the deterministic round size does not gate append throughput (it changes head-of-log lag, not bandwidth)",
	},
	{
		Name: "ablation-gossip", Kind: Modelled, run: gossipAblation,
		Title: "Ablation — head-of-log gossip interval",
		Claim: "§5.4: gossip is fixed-size and off the append path; larger intervals raise read-visible head lag, not append cost",
	},
	{
		Name: "ablation-tokencarry", Kind: Measured, run: tokenCarryAblation,
		Title: "Ablation — deferred records: carried with the token vs parked at the queue",
		Claim: "§6.2 trade-off: carrying costs token I/O, parking delays dependent records until the token returns",
	},
	{
		Name: "ablation-flush", Kind: Modelled, run: flushAblation,
		Title: "Ablation — batcher flush threshold",
		Claim: "§6.2 trade-off, without its latency half: batching amortizes transfer overhead (throughput under capacity limits is flat — the limiters, like real NICs, price records not packets), and because a batcher hands on whatever it holds when its inbox runs dry, the threshold is only a ceiling: a lone record's append latency is the same at every threshold (slowest / fastest mean <= 2)",
	},
	{
		Name: "geo-visibility", Kind: Measured, run: geoVisibility,
		Title: "Extension — causal visibility lag vs WAN delay",
		Claim: "not in the paper's evaluation: how long after a local append the record is applied at a peer; expected shape lag ≈ one-way delay + pipeline time",
	},
	{
		Name: "hyksos", Kind: Measured, run: hyksosWorkload,
		Title: "Extension — Hyksos key-value workload (§4.1 case study)",
		Claim: "not in the paper's evaluation: put/get/get-txn mix over a Zipf key space on one datacenter",
	},
	{
		Name: "failover", Kind: Measured, run: failover,
		Title: "Extension — replicated maintainer kill/restart (ack policies)",
		Claim: "not in the paper's evaluation: availability through a maintainer failure under replica groups; appends must keep succeeding under majority/one, and the restarted member catches up",
	},
	{
		Name: "readpath", Kind: Measured, Artifact: "readpath", run: readPath,
		Title: "Extension — batched read path (push tail vs poll, range vs single reads)",
		Claim: "not in the paper's evaluation: closed-loop append→visible tail rate on the subscription path vs a 2 ms poll loop over the public read API, bulk range reads vs single-record round trips, and aggregate hot-range read throughput as the replica group grows (members paced at a stated 100µs service time per read)",
	},
	{
		Name: "overload", Kind: Measured, Artifact: "overload", run: overload,
		Title: "Extension — end-to-end backpressure & admission control",
		Claim: "not in the paper's evaluation: 2x-saturating offered load with the pipeline credit bound + shed policy on vs the seed's unbounded ingress; bars: bounded in-flight records and bounded admitted-append p99 with admission on",
	},
	{
		Name: "tracelat", Kind: Measured, Artifact: "trace", run: traceLat,
		Title: "Extension — stage-latency attribution from the flight recorder",
		Claim: "not in the paper's evaluation: force-sampled appends through the replicated FLStore and the Chariots pipeline; bar: recorded spans attribute >= 90% of the client-measured end-to-end append latency",
	},
	ScaleExperiment("steady", "partition"),
	{
		Name: "durability", Kind: Measured, Artifact: "durability", run: durability,
		Title: "Extension — durability tier (fsync-paced group commit + quorum durability acks)",
		Claim: "not in the paper's evaluation: open-loop appenders against one segment store under per-batch vs group-commit fsync (disk cost injected via the seeded fault controller), then an R=3 replica group with one follower disk slowed 20x under wait-all vs quorum-return acks; bars: group p99 <= 0.5x per-batch p99 at 64 appenders, quorum p99 with the slow disk <= 2x healthy",
	},
	{
		Name: "elastic", Kind: Measured, Artifact: "elastic", run: elastic,
		Title: "Extension — live elasticity (autoscaled epoch switchover under doubled load)",
		Claim: "§6.3 end-to-end, not in the paper's evaluation: mid-run the offered load doubles past the old member set's capacity, the autoscaler fires an online epoch switchover (seal → build → announce → drain → pad → background migration), and the run must finish with every acknowledged LId unique and readable, the old epoch dense to the boundary, and post-flip append p99 within max(50ms, 10x the pre-flip p99); the phases last ¾, 1¼ and ¾ of -dur",
	},
}
