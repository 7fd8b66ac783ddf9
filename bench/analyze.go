package main

import (
	"math"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/flstore"
)

// traceSet is a run's spans with parents resolved and self times computed.
type traceSet struct {
	spans    []span
	self     []int64
	children map[int32][]int32 // span ID -> indices of its children
}

func newTraceSet(rec *recorder) *traceSet {
	ts := &traceSet{spans: rec.collect()}
	resolve(ts.spans)
	ts.self = selfTimes(ts.spans)
	ts.children = make(map[int32][]int32)
	for i := range ts.spans {
		if p := ts.spans[i].Parent; p != 0 {
			ts.children[p] = append(ts.children[p], int32(i))
		}
	}
	return ts
}

// kids returns the indices of the children of span i that have kind k.
func (ts *traceSet) kids(i int32, k kind) []int32 {
	var out []int32
	for _, c := range ts.children[ts.spans[i].ID] {
		if ts.spans[c].Kind == k {
			out = append(out, c)
		}
	}
	return out
}

// only returns the one child of kind k, or -1.
func (ts *traceSet) only(i int32, k kind) int32 {
	if c := ts.kids(i, k); len(c) == 1 {
		return c[0]
	}
	return -1
}

type acc struct{ v []float64 }

func (a *acc) add(ns int64)  { a.v = append(a.v, float64(ns)/1e3) }
func (a *acc) mean() float64 { return zeroIfNaN(mean(a.v)) }
func (a *acc) n() int        { return len(a.v) }
func zeroIfNaN(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// reportAppendLayers attributes the latency of the traced appends of batch
// records to the layers on their blocking path and reports the per-layer
// metrics of the write path. waitAll says whether the client waits for every
// follower or only for the acknowledging quorum.
func (ts *traceSet) reportAppendLayers(rc *runCtx, batch int, waitAll bool, quorumFollowers int) {
	var (
		total, clientSelf, primary, stubSelf, rpcSelf, ingestSelf, storePrimary acc
		invalidate, followerWait, slowest, blocking                             acc
		rpcAll, ingestAll, storeAll                                             acc
		ops, memberCalls, rpcCalls, rpcBytes, unjoined                          int
	)
	for i := range ts.spans {
		r := &ts.spans[i]
		if r.Kind != kClientAppend || int(r.N) != batch {
			continue
		}
		p := ts.only(int32(i), kMemberAppend)
		followers := ts.kids(int32(i), kMemberReplica)
		if p < 0 || len(followers) == 0 {
			unjoined++
			continue
		}
		ops++
		total.add(r.dur())
		clientSelf.add(ts.self[i])
		ps := &ts.spans[p]
		primary.add(ps.dur())
		stubSelf.add(ts.self[p])
		if c := ts.only(p, kRPCCall); c >= 0 {
			rpcSelf.add(ts.self[c])
			if s := ts.only(c, kSrvAppend); s >= 0 {
				ingestSelf.add(ts.self[s])
				var st int64
				for _, k := range ts.kids(s, kStoreAppend) {
					st += ts.spans[k].dur()
				}
				storePrimary.add(st)
			}
		}
		ends := make([]int64, 0, len(followers))
		for _, f := range followers {
			ends = append(ends, ts.spans[f].End)
		}
		sort.Slice(ends, func(a, b int) bool { return ends[a] < ends[b] })
		q := quorumFollowers
		if q > len(ends) {
			q = len(ends)
		}
		var fw int64
		if q > 0 {
			fw = ends[q-1] - ps.End
		}
		sl := ends[len(ends)-1] - ps.End
		followerWait.add(fw)
		slowest.add(sl)
		if waitAll {
			blocking.add(ts.self[i] + ps.dur() + sl)
		} else {
			blocking.add(ts.self[i] + ps.dur() + fw)
		}
		for _, inv := range ts.kids(int32(i), kMemberInvalidate) {
			invalidate.add(ts.spans[inv].dur())
		}
		// Every member call of the operation, and every rpc under them.
		for _, m := range ts.children[r.ID] {
			memberCalls++
			for _, c := range ts.kids(m, kRPCCall) {
				rpcCalls++
				rpcBytes += int(ts.spans[c].N)
			}
		}
	}
	for i := range ts.spans {
		s := &ts.spans[i]
		switch s.Kind {
		case kRPCCall:
			if len(ts.children[s.ID]) > 0 {
				rpcAll.add(ts.self[i])
			}
		case kSrvAppend, kSrvReplica:
			ingestAll.add(ts.self[i])
		case kStoreAppend:
			storeAll.add(s.dur())
		}
	}
	n := ops
	per := func(x int) float64 {
		if n == 0 {
			return 0
		}
		return float64(x) / float64(n)
	}
	rc.layer("flstore.client_self_us", "us", clientSelf.mean(), n)
	rc.layer("flstore.stub_self_us", "us", stubSelf.mean(), n)
	rc.layer("flstore.ingest_self_us", "us", ingestAll.mean(), ingestAll.n())
	rc.layer("replica.primary_us", "us", primary.mean(), n)
	rc.layer("replica.invalidate_us", "us", invalidate.mean(), invalidate.n())
	rc.layer("replica.follower_wait_us", "us", followerWait.mean(), n)
	rc.layer("replica.slowest_follower_us", "us", slowest.mean(), n)
	rc.layer("replica.msgs_per_append", "count", per(memberCalls), n)
	rc.layer("rpc.call_self_us", "us", rpcAll.mean(), rpcAll.n())
	rc.layer("rpc.calls_per_append", "count", per(rpcCalls), n)
	rc.layer("rpc.bytes_per_append", "bytes", per(rpcBytes), n)
	rc.layer("storage.append_us", "us", storeAll.mean(), storeAll.n())
	// The blocking path of the mean traced append, part by part.
	rc.layer("trace.append_mean_us", "us", total.mean(), n)
	rc.layer("trace.layer_sum_us", "us", blocking.mean(), n)
	rc.note("trace.primary_stub_self_us", "us", stubSelf.mean(), n)
	rc.note("trace.primary_rpc_self_us", "us", rpcSelf.mean(), rpcSelf.n())
	rc.note("trace.primary_ingest_self_us", "us", ingestSelf.mean(), ingestSelf.n())
	rc.note("trace.primary_storage_us", "us", storePrimary.mean(), storePrimary.n())
	rc.note("trace.unjoined_appends", "count", float64(unjoined), n+unjoined)
	residual := 0.0
	if total.mean() > 0 {
		residual = math.Abs(blocking.mean()-total.mean()) / total.mean()
	}
	rc.layer("trace.residual_share", "ratio", residual, n)
	if n == 0 {
		rc.violate("no traced append could be joined to its member calls")
	} else if residual > 0.15 {
		rc.violate("layer sum %.1f us is %.0f%% off the traced mean append %.1f us", blocking.mean(), residual*100, total.mean())
	}
}

// reportReadLayers reports the per-layer metrics of the range-read path
// from the traced windows.
func (ts *traceSet) reportReadLayers(rc *runCtx) {
	var srvSelf, storeRead acc
	var windows, memberReads int
	for i := range ts.spans {
		s := &ts.spans[i]
		switch s.Kind {
		case kClientRead:
			windows++
			memberReads += len(ts.kids(int32(i), kMemberReadRange))
		case kSrvReadRange:
			srvSelf.add(ts.self[i])
			var st int64
			for _, k := range ts.kids(int32(i), kStoreRead) {
				st += ts.spans[k].dur()
			}
			storeRead.add(st)
		}
	}
	rc.layer("flstore.readrange_self_us", "us", srvSelf.mean(), srvSelf.n())
	rc.layer("storage.read_us", "us", storeRead.mean(), storeRead.n())
	if windows > 0 {
		rc.layer("flstore.readrange_rpcs_per_window", "count", float64(memberReads)/float64(windows), windows)
	}
}

// reportTailLayers reports how long a parked TailWait took to return after
// the ingest that ended it, and how many long-polls a delivered record cost.
func (ts *traceSet) reportTailLayers(rc *runCtx, p flstore.Placement, delivered int) {
	// Ingest ends per maintainer, in time order (spans are start-ordered;
	// a maintainer serves its one connection serially, so ends are too).
	ingests := map[int16][]int32{}
	for i := range ts.spans {
		if k := ts.spans[i].Kind; k == kSrvAppend || k == kSrvReplica {
			ingests[ts.spans[i].Node] = append(ingests[ts.spans[i].Node], int32(i))
		}
	}
	var wake acc
	waits := 0
	for i := range ts.spans {
		w := &ts.spans[i]
		if w.Kind != kSrvTailWait {
			continue
		}
		waits++
		// The first ingest of the awaited range (the wait's N) that was
		// under way during the wait and reached the cursor is what ended it.
		// The maintainer moves a range's frontier when it assigns positions,
		// before the store call, so with a slow store the wait returns
		// before the ingest does and the figure is negative.
		list := ingests[w.Node]
		j := sort.Search(len(list), func(j int) bool { return ts.spans[list[j]].End >= w.Start })
		for ; j < len(list) && ts.spans[list[j]].Start <= w.End; j++ {
			in := &ts.spans[list[j]]
			if in.Key == 0 || p.Owner(in.Key) != int(w.N) {
				continue
			}
			if last := p.LIdOfSlot(int(w.N), p.SlotOf(in.Key)+uint64(in.N)-1); last >= w.Key {
				wake.add(w.End - in.End)
				break
			}
		}
	}
	rc.layer("flstore.tailwait_wake_us", "us", wake.mean(), wake.n())
	if delivered > 0 {
		rc.layer("flstore.tailwait_calls_per_rec", "count", float64(waits)/float64(delivered), delivered)
	}
}

// reportStoreLayers relates the stores' own counters over the recorded part
// of the phase to the AppendBatch calls recorded in it.
func (ts *traceSet) reportStoreLayers(rc *runCtx, fsyncs uint64, diskBytes int64) {
	var batches, records int
	for i := range ts.spans {
		if ts.spans[i].Kind == kStoreAppend {
			batches++
			records += int(ts.spans[i].N)
		}
	}
	if batches == 0 {
		return
	}
	rc.layer("storage.fsyncs_per_batch", "count", float64(fsyncs)/float64(batches), batches)
	rc.layer("storage.bytes_per_rec", "bytes", float64(diskBytes)/float64(records), records)
}

// outDir is where span files and reports go: out/ beside the benchmark's
// sources, whether the run started at the root of the checkout or in bench/.
func outDir() string {
	if _, err := os.Stat(filepath.Join("bench", "go.mod")); err == nil {
		return filepath.Join("bench", "out")
	}
	return "out"
}

func (ts *traceSet) write(rc *runCtx) {
	if err := os.MkdirAll(outDir(), 0o755); err != nil {
		rc.violate("writing the trace: %v", err)
		return
	}
	path := filepath.Join(outDir(), "trace-"+rc.workload+".json")
	if err := writeTrace(path, rc.workload, rc.stamp, ts.spans, ts.self); err != nil {
		rc.violate("writing the trace: %v", err)
		return
	}
	rc.note("trace.spans", "count", float64(len(ts.spans)), 1)
}
