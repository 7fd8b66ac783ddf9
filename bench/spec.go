package main

// The vocabulary of the benchmark: workloads, phases and metrics. The names
// here are the names in BENCHMARK.json; a test holds the two together.

type workloadSpec struct {
	Name string
	Why  string
	// pacedShare is the part of the measured seconds the paced phase gets;
	// the bulk phase gets the rest.
	pacedShare float64
	run        func(rc *runCtx) error
}

var workloads = []workloadSpec{
	{"log_volatile", "FLStore R=3 with fsync never: storage does almost nothing, so rpc, wire, codec and replica fan-out set the latency", 0.92, runLogVolatile},
	{"log_durable", "same deployment with group-commit fsync: the storage commit wait dominates and rpc work should barely show", 0.88, runLogDurable},
	{"read_mixed", "log_volatile preloaded ten times past the tail caches: range reads of the cold region and a tail subscriber run beside an appender on the same connections and locks", 0.7, runReadMixed},
	{"geo_2dc", "two Chariots datacenters over loopback TCP behind an injected 10 ms one-way delay: pipeline stages, token, sender, receiver and dependency parking do the work and FLStore rpc does none", 0.88, runGeo},
}

type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end metrics only
	What   string
}

// endToEnd are what a user of the log feels. Every workload reports every
// one of them; what a role-named metric (delivery_*) measures on
// each workload is written down in README.md.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25, "median of three set-ups: build the deployment, preload, and a fixed count of warm-up appends on a fixed schedule"},
	{"append_p50_ms", "ms", "lower", 0.25, "paced phase: append acknowledgement latency from the intended start, median over 1 s windows of the window median"},
	{"append_p90_ms", "ms", "lower", 0.25, "paced phase: the same for the window 90th percentile"},
	{"delivery_p50_ms", "ms", "lower", 0.25, "paced phase: intended append to delivery at a subscriber tailing the log in LId order, median over 1 s windows of the window median"},
	{"delivery_p90_ms", "ms", "lower", 0.25, "paced phase: the same for the window 90th percentile"},
	{"heap_mb", "MB", "lower", 0.20, "HeapInuse after a forced collection at the end of the paced phase"},
}

// perLayer are the metrics of single layers, reported by the traced run
// (-trace 1). They have no bound. A metric that does not apply to a workload
// (the Chariots hop on an FLStore workload, say) reads 0 there. "should
// move" names the end-to-end metric and workload the layer metric predicts;
// README.md has the reasoning.
var perLayer = []metricSpec{
	// scale: validity of every latency.
	{Name: "scale.gen_lag_p99_ms", Unit: "ms", Better: "lower", What: "how late an idle session woke for an arrival (sleep overshoot)"},
	{Name: "scale.backlog_growth", Unit: "ratio", Better: "lower", What: "median start delay, last third of the paced phase over first third; above 2 with the last third more than one inter-arrival gap behind fails the run"},
	{Name: "scale.offered", Unit: "count", Better: "higher", What: "arrivals the schedule offered"},
	{Name: "scale.completed", Unit: "count", Better: "higher", What: "arrivals completed"},
	// flstore client and maintainer.
	{Name: "client.append_p99_ms", Unit: "ms", Better: "lower", What: "paced append latency, 99th percentile over the phase: too unsteady on this host to gate"},
	{Name: "client.append_p999_ms", Unit: "ms", Better: "lower", What: "the same, 99.9th percentile"},
	{Name: "client.service_p50_ms", Unit: "ms", Better: "lower", What: "paced append from its actual start, not its intended one: the latency without the generator's wake-up"},
	{Name: "client.bulk_recs_s", Unit: "records/s", Better: "higher", What: "bulk phase: records moved a second, median over windows (geo_2dc: records over the time to the last one applied at dc1); follows the host's speed too closely to gate"},
	{Name: "client.bulk_op_p50_ms", Unit: "ms", Better: "lower", What: "bulk phase: latency of one closed-loop operation (64x512 B append, 256-record window, 256-record Inject); the other face of client.bulk_recs_s"},
	{Name: "client.sat_small_ops_s", Unit: "1/s", Better: "higher", What: "two closed-loop callers appending 4x512 B for one second: swings widely run to run"},
	{Name: "flstore.client_self_us", Unit: "us", Better: "lower", What: "Client.AppendBatch minus its member calls: routing, session bookkeeping"},
	{Name: "flstore.stub_self_us", Unit: "us", Better: "lower", What: "primary member call minus its rpc call: message encode and decode"},
	{Name: "flstore.ingest_self_us", Unit: "us", Better: "lower", What: "server-side Append and ReplicaAppend minus the store call: assign, watermark, tail cache, notify"},
	{Name: "flstore.readrange_self_us", Unit: "us", Better: "lower", What: "server-side ReadRange minus its store reads"},
	{Name: "flstore.readrange_rpcs_per_window", Unit: "count", Better: "lower", What: "member ReadRange calls per 256-record window: scatter plus continuations"},
	{Name: "flstore.tailwait_wake_us", Unit: "us", Better: "lower", What: "end of the ingest that filled the awaited position to the return of the parked TailWait"},
	{Name: "flstore.tailwait_calls_per_rec", Unit: "count", Better: "lower", What: "TailWait long-polls per record delivered to the subscriber"},
	{Name: "flstore.iso_maintainer_append_us", Unit: "us", Better: "lower", What: "isolation: Maintainer.Append of 4x512 B in process, in-memory store"},
	// replica.
	{Name: "replica.primary_us", Unit: "us", Better: "lower", What: "the primary member call"},
	{Name: "replica.invalidate_us", Unit: "us", Better: "lower", What: "one invalidation announcement to a follower"},
	{Name: "replica.follower_wait_us", Unit: "us", Better: "lower", What: "primary return to the acknowledgement that completes the quorum"},
	{Name: "replica.slowest_follower_us", Unit: "us", Better: "lower", What: "primary return to the last follower acknowledgement"},
	{Name: "replica.msgs_per_append", Unit: "count", Better: "lower", What: "member calls per append, exact"},
	{Name: "replica.iso_session_append_us", Unit: "us", Better: "lower", What: "isolation: Session.Append of 4x512 B over three in-process members"},
	// rpc, wire, core.
	{Name: "rpc.call_self_us", Unit: "us", Better: "lower", What: "rpc.Client.Call minus the server-side handler: framing, syscalls, loopback, hand-offs, dispatch"},
	{Name: "rpc.calls_per_append", Unit: "count", Better: "lower", What: "rpc calls per append, exact"},
	{Name: "rpc.bytes_per_append", Unit: "bytes", Better: "lower", What: "request plus response payload bytes per append, exact"},
	{Name: "rpc.echo_tcp_us", Unit: "us", Better: "lower", What: "isolation: null handler round trip over loopback TCP, 4x512 B payload, one caller back to back"},
	{Name: "rpc.echo_local_us", Unit: "us", Better: "lower", What: "isolation: the same through LocalClient"},
	{Name: "wire.frame_ns", Unit: "ns", Better: "lower", What: "isolation: wire.Append plus Reader.Next of a 4x512 B payload"},
	{Name: "core.encode_ns_per_rec.4", Unit: "ns", Better: "lower", What: "isolation: BatchEncoder.AddAll, 4x512 B, per record"},
	{Name: "core.encode_ns_per_rec.64", Unit: "ns", Better: "lower", What: "isolation: the same, 64x512 B"},
	{Name: "core.decode_ns_per_rec.4", Unit: "ns", Better: "lower", What: "isolation: DecodeRecordsShared, 4x512 B, per record"},
	{Name: "core.decode_ns_per_rec.64", Unit: "ns", Better: "lower", What: "isolation: the same, 64x512 B"},
	// storage.
	{Name: "storage.append_us", Unit: "us", Better: "lower", What: "Store.AppendBatch as the maintainers call it"},
	{Name: "storage.read_us", Unit: "us", Better: "lower", What: "store Scan and Get time per server-side ReadRange"},
	{Name: "storage.fsyncs_per_batch", Unit: "count", Better: "lower", What: "fsyncs per AppendBatch call: the coalescing ratio"},
	{Name: "storage.bytes_per_rec", Unit: "bytes", Better: "lower", What: "segment bytes written per record stored"},
	{Name: "storage.fsyncs_per_append", Unit: "count", Better: "lower", What: "fsyncs over the three stores per acknowledged append"},
	{Name: "storage.disk_bytes_per_user_byte", Unit: "ratio", Better: "lower", What: "segment bytes over the three stores per body byte acknowledged"},
	{Name: "storage.iso_append_never_us", Unit: "us", Better: "lower", What: "isolation: one caller, fresh segment store, fsync never, 4x512 B"},
	{Name: "storage.iso_append_each_us", Unit: "us", Better: "lower", What: "isolation: the same, fsync each batch"},
	{Name: "storage.iso_append_group_us", Unit: "us", Better: "lower", What: "isolation: the same, group commit; minus each = the commit-window wait of a lone caller"},
	// chariots.
	{Name: "chariots.send_wait_ms", Unit: "ms", Better: "lower", What: "local acknowledgement to the sender handing over the snapshot that carries the record"},
	{Name: "chariots.link_ms", Unit: "ms", Better: "lower", What: "time in the WAN link: the injected 10 ms plus queueing behind earlier snapshots"},
	{Name: "chariots.deliver_us", Unit: "us", Better: "lower", What: "Deliver past the link: snapshot codec, rpc, Receiver.Deliver"},
	{Name: "chariots.snapshot_recs", Unit: "records", Better: "higher", What: "records per snapshot"},
	{Name: "chariots.remote_apply_ms", Unit: "ms", Better: "lower", What: "Deliver return to visible at dc1's subscriber: batcher, filter, queue, maintainer, dependency parking"},
	{Name: "chariots.visibility_minus_wan_ms", Unit: "ms", Better: "lower", What: "delivery_p50_ms minus the injected delay"},
	{Name: "chariots.visibility_mean_ms", Unit: "ms", Better: "lower", What: "mean visibility of the traced records"},
	{Name: "chariots.layer_sum_ms", Unit: "ms", Better: "lower", What: "ack + send_wait + link + deliver + remote_apply of the same records"},
	{Name: "chariots.store_append_us", Unit: "us", Better: "lower", What: "AppendBatch of the datacenters' maintainer stores"},
	{Name: "chariots.stage_recs_s.Batcher", Unit: "records/s", Better: "higher", What: "flood: records the stage processed a second, dc0"},
	{Name: "chariots.stage_recs_s.Filter", Unit: "records/s", Better: "higher", What: "same"},
	{Name: "chariots.stage_recs_s.Queue", Unit: "records/s", Better: "higher", What: "same"},
	{Name: "chariots.stage_recs_s.Maintainer", Unit: "records/s", Better: "higher", What: "same"},
	{Name: "chariots.stage_recs_s.Sender", Unit: "records/s", Better: "higher", What: "same"},
	{Name: "chariots.stage_recs_s.Receiver", Unit: "records/s", Better: "higher", What: "same, dc1"},
	{Name: "chariots.credit_waits", Unit: "count", Better: "lower", What: "ingress calls at dc0 that blocked for pipeline credits during the run"},
	{Name: "chariots.credit_max_inuse", Unit: "records", Better: "lower", What: "high-water mark of records between ingress and apply at dc0"},
	// process and the tracing itself.
	{Name: "proc.allocs_per_append", Unit: "count", Better: "lower", What: "heap allocations of the whole process per paced append, recording off"},
	{Name: "proc.alloc_bytes_per_append", Unit: "bytes", Better: "lower", What: "bytes allocated per paced append"},
	{Name: "proc.cpu_us_per_append", Unit: "us", Better: "lower", What: "user plus system CPU time per paced append"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower", What: "stop-the-world pause total over the same part of the phase"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower", What: "append_p50_ms with recording on over recording off, same deployment, same run"},
	{Name: "trace.append_mean_us", Unit: "us", Better: "lower", What: "mean traced append, actual start to acknowledgement"},
	{Name: "trace.layer_sum_us", Unit: "us", Better: "lower", What: "client self + primary call + follower wait of the same appends"},
	{Name: "trace.residual_share", Unit: "ratio", Better: "lower", What: "distance between the two, as a share of the mean; above 0.15 fails the traced run"},
}
