// Command logctl is the operator's client for a running FLStore deployment
// (cmd/flstore): append records, read by position or tag, inspect the head
// of the log, and tail the log live.
//
//	logctl -controller 127.0.0.1:7000 append -tag user=alice "first post"
//	logctl -controller 127.0.0.1:7000 read 5
//	logctl -controller 127.0.0.1:7000 head
//	logctl -controller 127.0.0.1:7000 lookup -tag user=alice -recent 10
//	logctl -controller 127.0.0.1:7000 tail -from 1
//	logctl -controller 127.0.0.1:7000 stats -interval 1s
//	logctl -controller 127.0.0.1:7000 replicas
//	logctl -controller 127.0.0.1:7000 epochs
//	logctl -controller 127.0.0.1:7000 grow -maintainers 4
//	logctl trace -nodes 127.0.0.1:7070,127.0.0.1:7071 -mindur 1ms
//
// The stats, reads, replicas, epochs, and grow subcommands ride the typed
// flstore.Admin client; logctl never decodes admin wire messages itself.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/flstore"
	"repro/internal/metrics"
	"repro/internal/obsrv"
	"repro/internal/rpc"
	"repro/internal/trace"
)

func main() {
	controller := flag.String("controller", "127.0.0.1:7000", "controller address")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}
	// trace talks to the nodes' observability endpoints directly; it needs
	// no controller session.
	if args[0] == "trace" {
		cmdTrace(args[1:])
		return
	}
	// Operator operations are rare, so sample them all: the contexts
	// propagate over the wire and the server-side spans land in the nodes'
	// flight recorders, where `logctl trace` can find them afterwards.
	trace.SetSampling(1)

	conn, err := rpc.Dial(*controller)
	if err != nil {
		log.Fatalf("dialing controller: %v", err)
	}
	defer conn.Close()
	cmd, rest := args[0], args[1:]

	// Admin subcommands need no data-plane session; everything else builds
	// an flstore.Client on top of the same connection.
	admin := flstore.NewAdmin(conn)
	switch cmd {
	case "stats":
		cmdStats(admin, rest)
		return
	case "reads":
		cmdReads(admin, rest)
		return
	case "replicas":
		cmdReplicas(admin)
		return
	case "epochs":
		cmdEpochs(admin)
		return
	case "grow":
		cmdGrow(admin, rest)
		return
	}

	client, err := flstore.NewClient(flstore.NewControllerClient(conn))
	if err != nil {
		log.Fatalf("session init: %v", err)
	}
	switch cmd {
	case "append":
		cmdAppend(client, rest)
	case "read":
		cmdRead(client, rest)
	case "head":
		cmdHead(client)
	case "lookup":
		cmdLookup(client, rest)
	case "tail":
		cmdTail(client, rest)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: logctl [-controller host:port] <command>

commands:
  append [-tag k=v]... <body>     append a record, print its LId
  read <lid>                      print the record at a position
  head                            print the head of the log
  lookup -tag k[=v] [-recent n]   find records by tag
  tail [-from lid]                follow the log (ctrl-c to stop)
  stats [-interval d]             per-maintainer throughput and latency
  reads [-interval d]             per-maintainer read-path counters and cache hit ratio
  replicas                        per-group replica membership, health, lag
  epochs                          the epoch journal: placements, boundaries, migration progress
  grow -maintainers n [-batch n]  switch to the next epoch (an elastic deployment
                                  executes it; a static one refuses)
  trace -nodes a,b [-trace id] [-stage s] [-mindur d] [-budget]
                                  join the nodes' flight recorders into span trees`)
	os.Exit(2)
}

// cmdTrace fetches /debug/trace from every listed observability endpoint
// and joins the dumps into cross-process span trees (or, with -budget, the
// aggregated per-stage latency budget).
func cmdTrace(args []string) {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	nodes := fs.String("nodes", "127.0.0.1:7070", "comma-separated obsrv addresses (host:port)")
	traceID := fs.String("trace", "", "only spans of this trace id (hex)")
	stage := fs.String("stage", "", "only spans of this stage")
	mindur := fs.Duration("mindur", 0, "only spans at least this long")
	limit := fs.Int("limit", 0, "most recent n spans per node (0 = all retained)")
	budget := fs.Bool("budget", false, "print the per-stage latency budget instead of span trees")
	fs.Parse(args)

	q := url.Values{}
	if *traceID != "" {
		q.Set("trace", *traceID)
	}
	if *stage != "" {
		q.Set("stage", *stage)
	}
	if *mindur > 0 {
		q.Set("mindur", mindur.String())
	}
	if *limit > 0 {
		q.Set("limit", strconv.Itoa(*limit))
	}

	var spans []trace.Span
	for _, node := range strings.Split(*nodes, ",") {
		node = strings.TrimSpace(node)
		if node == "" {
			continue
		}
		u := "http://" + node + "/debug/trace"
		if enc := q.Encode(); enc != "" {
			u += "?" + enc
		}
		resp, err := http.Get(u)
		if err != nil {
			log.Fatalf("trace: fetching %s: %v", node, err)
		}
		var dump obsrv.TraceDump
		err = json.NewDecoder(resp.Body).Decode(&dump)
		resp.Body.Close()
		if err != nil {
			log.Fatalf("trace: decoding %s: %v", node, err)
		}
		spans = append(spans, dump.Spans...)
	}
	if len(spans) == 0 {
		fmt.Println("no spans retained (is sampling enabled on the nodes?)")
		return
	}
	if *budget {
		b := trace.ComputeBudget(spans)
		fmt.Printf("traces=%d coverage=%.1f%%\n", b.Traces, 100*b.Coverage())
		stages := make([]string, 0, len(b.StageNs))
		for s := range b.StageNs {
			stages = append(stages, s)
		}
		sort.Slice(stages, func(i, j int) bool { return b.StageNs[stages[i]] > b.StageNs[stages[j]] })
		tbl := metrics.Table{Header: []string{"stage", "time", "queue", "share"}}
		for _, s := range stages {
			tbl.AddRow(s,
				time.Duration(b.StageNs[s]).Round(time.Microsecond).String(),
				time.Duration(b.QueueNs[s]).Round(time.Microsecond).String(),
				fmt.Sprintf("%.1f%%", 100*float64(b.StageNs[s])/float64(b.CoveredNs)))
		}
		fmt.Print(tbl.String())
		return
	}
	trace.RenderText(os.Stdout, spans)
}

// tagFlags parses repeated -tag k=v arguments out of args, returning the
// tags and the remaining arguments.
func tagFlags(args []string) ([]core.Tag, []string) {
	var tags []core.Tag
	var rest []string
	for i := 0; i < len(args); i++ {
		if args[i] == "-tag" && i+1 < len(args) {
			k, v, _ := strings.Cut(args[i+1], "=")
			tags = append(tags, core.Tag{Key: k, Value: v})
			i++
			continue
		}
		rest = append(rest, args[i])
	}
	return tags, rest
}

func cmdAppend(c *flstore.Client, args []string) {
	tags, rest := tagFlags(args)
	if len(rest) != 1 {
		usage()
	}
	lid, err := c.Append([]byte(rest[0]), tags)
	if err != nil {
		log.Fatalf("append: %v", err)
	}
	fmt.Println(lid)
}

func cmdRead(c *flstore.Client, args []string) {
	if len(args) != 1 {
		usage()
	}
	lid, err := strconv.ParseUint(args[0], 10, 64)
	if err != nil {
		log.Fatalf("bad LId %q: %v", args[0], err)
	}
	rec, err := c.ReadLId(lid)
	if err != nil {
		log.Fatalf("read: %v", err)
	}
	printRecord(rec)
}

func cmdHead(c *flstore.Client) {
	head, err := c.HeadExact()
	if err != nil {
		log.Fatalf("head: %v", err)
	}
	fmt.Println(head)
}

func cmdLookup(c *flstore.Client, args []string) {
	fs := flag.NewFlagSet("lookup", flag.ExitOnError)
	tag := fs.String("tag", "", "tag key or key=value to match")
	recent := fs.Int("recent", 10, "return the most recent n matches")
	fs.Parse(args)
	if *tag == "" {
		usage()
	}
	k, v, hasValue := strings.Cut(*tag, "=")
	rule := core.Rule{TagKey: k, MostRecent: true, Limit: *recent}
	if hasValue {
		rule.TagCmp = core.CmpEQ
		rule.TagValue = v
	}
	recs, err := c.Read(rule)
	if err != nil {
		log.Fatalf("lookup: %v", err)
	}
	for _, rec := range recs {
		printRecord(rec)
	}
}

func cmdTail(c *flstore.Client, args []string) {
	fs := flag.NewFlagSet("tail", flag.ExitOnError)
	from := fs.Uint64("from", 0, "start position (default: current head + 1)")
	fs.Parse(args)
	start := *from
	if start == 0 {
		head, err := c.HeadExact()
		if err != nil {
			log.Fatalf("head: %v", err)
		}
		start = head + 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cancel()
	}()
	err := c.Tail(ctx, start, func(rec *core.Record) bool {
		printRecord(rec)
		return true
	})
	if err != nil && ctx.Err() == nil {
		log.Fatalf("tail: %v", err)
	}
}

// statsWindow is what stats and reads both render: two controller metrics
// snapshots an -interval apart, and the maintainers the second one reports
// appends for, ascending.
type statsWindow struct {
	before, after metrics.Snapshot
	interval      time.Duration
	maintainers   []string
}

// sampleStats parses cmd's -interval flag (described by usage), takes the
// two snapshots and lists the maintainers, exiting with cmd's name on error.
func sampleStats(admin *flstore.Admin, cmd, usage string, args []string) statsWindow {
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	interval := fs.Duration("interval", time.Second, usage)
	fs.Parse(args)
	ctx := context.Background()

	before, err := admin.Stats(ctx)
	if err != nil {
		log.Fatalf("%s: %v", cmd, err)
	}
	time.Sleep(*interval)
	after, err := admin.Stats(ctx)
	if err != nil {
		log.Fatalf("%s: %v", cmd, err)
	}

	// Enumerate maintainers from the appends counter family.
	var ids []int
	for _, s := range after.Series {
		if s.Name != "flstore_appends_total" {
			continue
		}
		if id, err := strconv.Atoi(s.Labels["maintainer"]); err == nil {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		log.Fatalf("%s: no maintainer series in snapshot (is the node set running with metrics enabled?)", cmd)
	}
	sort.Ints(ids)
	w := statsWindow{before: before, after: after, interval: *interval}
	for _, id := range ids {
		w.maintainers = append(w.maintainers, strconv.Itoa(id))
	}
	return w
}

// val is maintainer m's value of series name in snap (0 when absent).
func val(snap metrics.Snapshot, name, m string) float64 {
	if s := snap.Find(name, map[string]string{"maintainer": m}); s != nil {
		return s.Value
	}
	return 0
}

// delta is how much maintainer m's series name grew over the window.
func (w statsWindow) delta(name, m string) float64 {
	return val(w.after, name, m) - val(w.before, name, m)
}

// rate is delta per second of the window, as logctl prints rates.
func (w statsWindow) rate(name, m string) string {
	return fmt.Sprintf("%.1f", w.delta(name, m)/w.interval.Seconds())
}

// cmdStats renders one row per maintainer: head of log, append throughput
// over the window (counter delta), p99 append latency (bucketed
// histogram), and cumulative overload rejections.
func cmdStats(admin *flstore.Admin, args []string) {
	w := sampleStats(admin, "stats", "sampling window for throughput rates", args)
	tbl := metrics.Table{Header: []string{"maintainer", "head LId", "appends/s", "p99 append", "rejected"}}
	for _, m := range w.maintainers {
		p99 := "-"
		if h := w.after.Find("flstore_append_seconds", map[string]string{"maintainer": m}); h != nil && h.Count > 0 {
			p99 = time.Duration(h.Quantile(0.99) * float64(time.Second)).Round(time.Microsecond).String()
		}
		tbl.AddRow(m,
			strconv.FormatUint(uint64(val(w.after, "flstore_head_lid", m)), 10),
			w.rate("flstore_appends_total", m),
			p99,
			strconv.FormatUint(uint64(val(w.after, "flstore_rejected_total", m)), 10))
	}
	fmt.Print(tbl.String())
}

// cmdReads renders the read path per maintainer: range-read / multi-read /
// tail-wait rates over the sampling window, records per range batch, and
// the cumulative tail-cache hit ratio with the store-scan counter that
// shows whether tailing readers are touching the store at all.
func cmdReads(admin *flstore.Admin, args []string) {
	w := sampleStats(admin, "reads", "sampling window for rates", args)
	tbl := metrics.Table{Header: []string{
		"maintainer", "range reads/s", "recs/batch", "multi reads/s",
		"tail waits/s", "cache hit%", "store scans"}}
	for _, m := range w.maintainers {
		reads := w.delta("flstore_range_reads_total", m)
		recs := w.delta("flstore_range_records_total", m)
		perBatch := "-"
		if reads > 0 {
			perBatch = fmt.Sprintf("%.1f", recs/reads)
		}
		hits := val(w.after, "flstore_tail_cache_hits_total", m)
		misses := val(w.after, "flstore_tail_cache_misses_total", m)
		hitRatio := "-"
		if hits+misses > 0 {
			hitRatio = fmt.Sprintf("%.1f", 100*hits/(hits+misses))
		}
		tbl.AddRow(m,
			w.rate("flstore_range_reads_total", m),
			perBatch,
			w.rate("flstore_multi_reads_total", m),
			w.rate("flstore_tail_waits_total", m),
			hitRatio,
			strconv.FormatUint(uint64(val(w.after, "flstore_store_scans_total", m)), 10))
	}
	fmt.Print(tbl.String())
}

// cmdReplicas renders the controller's replica-group status: one row per
// group member with its role, reachability, per-range frontier, catch-up
// lag in log positions, validity watermark (positions below it are served
// from the member's local store), invalidation backlog (announced but
// unresolved positions, where reads block or fail over), and durable
// watermark (positions below it are fsynced in the member's local store;
// "-" when the store is volatile).
func cmdReplicas(admin *flstore.Admin) {
	st, err := admin.Replicas(context.Background())
	if err != nil {
		log.Fatalf("replicas: %v (is the node set running with -replication?)", err)
	}
	fmt.Printf("replication=%d ack=%s\n", st.Replication, st.Ack)
	tbl := metrics.Table{Header: []string{"range", "member", "role", "health", "frontier", "lag LIds", "valid wm", "inval backlog", "durable wm"}}
	for _, g := range st.Groups {
		for _, m := range g.Members {
			health := "ok"
			if !m.Healthy {
				health = "unreachable"
			}
			durable := "-"
			if m.DurableWatermark > 0 {
				durable = strconv.FormatUint(m.DurableWatermark, 10)
			}
			tbl.AddRow(
				strconv.Itoa(g.Range),
				strconv.Itoa(m.Member),
				m.Role,
				health,
				strconv.FormatUint(m.Frontier, 10),
				strconv.FormatUint(m.LagLIds, 10),
				strconv.FormatUint(m.ValidWatermark, 10),
				strconv.FormatUint(m.InvalBacklog, 10),
				durable)
		}
	}
	fmt.Print(tbl.String())
}

// cmdEpochs renders the epoch journal: one row per epoch with its
// boundary, placement, serving addresses, and — for sealed epochs of an
// elastic deployment — live migration progress.
func cmdEpochs(admin *flstore.Admin) {
	eps, err := admin.Epochs(context.Background())
	if err != nil {
		log.Fatalf("epochs: %v", err)
	}
	tbl := metrics.Table{Header: []string{"epoch", "first LId", "maintainers", "batch", "state", "migration", "addrs"}}
	for _, e := range eps {
		state := "serving"
		if e.Sealed {
			state = "sealed"
		}
		migration := "-"
		if e.Sealed && e.RangesTotal > 0 {
			migration = fmt.Sprintf("%d/%d ranges, %d recs", e.RangesStreamed, e.RangesTotal, e.RecordsStreamed)
			if e.MigrationDone {
				migration += " (done)"
			}
		}
		tbl.AddRow(
			strconv.Itoa(e.Epoch),
			strconv.FormatUint(e.FirstLId, 10),
			strconv.Itoa(e.NumMaintainers),
			strconv.FormatUint(e.BatchSize, 10),
			state,
			migration,
			strings.Join(e.MaintainerAddrs, ","))
	}
	fmt.Print(tbl.String())
}

// cmdGrow proposes the next epoch through the admin surface. A deployment
// serving an flstore.Orchestrator executes a live switchover, picking the
// boundary and building the new member set itself; a static deployment
// (cmd/flstore) has nothing to seal its owners with and refuses.
func cmdGrow(admin *flstore.Admin, args []string) {
	fs := flag.NewFlagSet("grow", flag.ExitOnError)
	maintainers := fs.Int("maintainers", 0, "maintainer count of the new epoch (required)")
	batch := fs.Uint64("batch", 0, "placement batch size (0 keeps the current)")
	fs.Parse(args)
	if *maintainers <= 0 {
		usage()
	}
	prop := flstore.EpochProposal{NumMaintainers: *maintainers, BatchSize: *batch}
	st, err := admin.ProposeEpoch(context.Background(), prop)
	if err != nil {
		log.Fatalf("grow: %v", err)
	}
	fmt.Printf("epoch %d: first LId %d, %d maintainers, batch %d\n",
		st.Epoch, st.FirstLId, st.NumMaintainers, st.BatchSize)
}

func printRecord(rec *core.Record) {
	var tags strings.Builder
	for i, t := range rec.Tags {
		if i > 0 {
			tags.WriteByte(' ')
		}
		fmt.Fprintf(&tags, "%s=%s", t.Key, t.Value)
	}
	fmt.Printf("lid=%d toid=%d host=%s tags=[%s] body=%q\n",
		rec.LId, rec.TOId, rec.Host, tags.String(), rec.Body)
}
