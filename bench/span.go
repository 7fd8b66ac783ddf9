package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// kind names the boundary a span was recorded at.
type kind uint8

const (
	kClientAppend     kind = iota + 1 // flstore.Client.AppendBatch, one per operation
	kClientRead                       // flstore.Client.ReadRange, one per window
	kMemberAppend                     // replica.Member.Append at the client stub
	kMemberReplica                    // replica.Member.ReplicaAppend at the client stub
	kMemberInvalidate                 // replica.Invalidator.Invalidate at the client stub
	kMemberReadRange                  // RangeReadAPI.ReadRange at the client stub
	kMemberTailWait                   // RangeReadAPI.TailWait at the client stub
	kMemberFrontier                   // replica.Member.RangeFrontier at the client stub
	kRPCCall                          // rpc.Client.Call
	kSrvAppend                        // Maintainer.Append behind the server
	kSrvReplica                       // Maintainer.ReplicaAppend behind the server
	kSrvInvalidate                    // Maintainer.Invalidate behind the server
	kSrvReadRange                     // Maintainer.ReadRange behind the server
	kSrvTailWait                      // Maintainer.TailWait behind the server
	kStoreAppend                      // storage.Store.AppendBatch
	kStoreRead                        // storage.Store.Scan or Get
	kShip                             // chariots sender hands a snapshot to the WAN link
	kDeliver                          // snapshot leaves the WAN link: codec, rpc, Receiver.Deliver
)

var kindNames = [...]string{
	kClientAppend: "client.append", kClientRead: "client.readrange",
	kMemberAppend: "member.append", kMemberReplica: "member.replica_append",
	kMemberInvalidate: "member.invalidate", kMemberReadRange: "member.readrange",
	kMemberTailWait: "member.tailwait", kMemberFrontier: "member.frontier",
	kRPCCall:   "rpc.call",
	kSrvAppend: "srv.append", kSrvReplica: "srv.replica_append",
	kSrvInvalidate: "srv.invalidate", kSrvReadRange: "srv.readrange", kSrvTailWait: "srv.tailwait",
	kStoreAppend: "storage.append", kStoreRead: "storage.read",
	kShip: "chariots.ship", kDeliver: "chariots.deliver",
}

func (k kind) String() string { return kindNames[k] }

// span is one timed call into a layer. Client-side spans of one operation
// share Req, the identifier the driver stamped on the batch; server-side
// spans carry no identifier of their own and are joined to the client call
// that caused them on Node, Key and time (see resolve).
type span struct {
	ID     int32
	Parent int32 // 0 until resolved, and for roots
	Kind   kind
	Actor  int16 // client-side: which session or reader; -1 on the server side
	Node   int16 // maintainer index; -1 where there is none
	Req    uint64
	Key    uint64 // first LId of a batch, upTo of an invalidation, lo of a range
	Start  int64  // ns since the recorder's epoch
	End    int64
	N      int32 // records, or bytes for rpc.call
}

func (s *span) dur() int64 { return s.End - s.Start }

// lane is the span buffer of one wrapper. A wrapper is used by one actor or
// one server connection, so the lock is almost never contended.
type lane struct {
	mu    sync.Mutex
	spans []span
}

func (l *lane) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// recorder keeps spans in memory until the run ends. Only the traced run
// has one. While it is off the wrappers pass calls straight through, which
// is how the traced run measures what recording costs.
type recorder struct {
	epoch time.Time
	on    atomic.Bool
	mu    sync.Mutex
	lanes []*lane
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) lane() *lane {
	l := &lane{}
	r.mu.Lock()
	r.lanes = append(r.lanes, l)
	r.mu.Unlock()
	return l
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// collect merges every lane into one slice ordered by start time and
// numbers the spans.
func (r *recorder) collect() []span {
	var all []span
	for _, l := range r.lanes {
		l.mu.Lock()
		all = append(all, l.spans...)
		l.mu.Unlock()
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	for i := range all {
		all[i].ID = int32(i + 1)
	}
	return all
}

func reqID(actor int, seq uint64) uint64 { return uint64(actor+1)<<48 | seq }

// memberKindOf maps a server-side kind to the client stub call that causes it.
var memberKindOf = map[kind]kind{
	kSrvAppend: kMemberAppend, kSrvReplica: kMemberReplica, kSrvInvalidate: kMemberInvalidate,
	kSrvReadRange: kMemberReadRange, kSrvTailWait: kMemberTailWait,
}

type joinKey struct {
	kind kind
	node int16
	key  uint64
}

// containing returns, among candidates (indices into spans, ordered by
// start), the shortest one whose interval contains [start, end]. Calls on
// one list are serial or nearly so, so only the few candidates that started
// last before start can contain it.
func containing(spans []span, candidates []int32, start, end int64) int32 {
	const lookBack = 64
	i := sort.Search(len(candidates), func(i int) bool { return spans[candidates[i]].Start > start })
	best := int32(-1)
	for n := 0; i > 0 && n < lookBack; n++ {
		i--
		s := &spans[candidates[i]]
		if s.End >= end && (best < 0 || s.dur() < spans[best].dur()) {
			best = candidates[i]
		}
	}
	return best
}

// resolve fills in Parent. The rules, outermost first:
//
//   - a member call belongs to the operation of the same actor with the same
//     Req; an invalidation, which carries no records and so no Req, to the
//     operation of its actor that was running when it started;
//   - an rpc call belongs to the shortest member call of the same actor and
//     maintainer that contains it (every stub method makes exactly one call);
//   - a server-side call belongs to the rpc call made by the member call with
//     the matching kind, maintainer and key that contains it in time;
//   - a storage call belongs to the server-side call on the same maintainer
//     that contains it.
//
// Spans left without a parent (a straggler that outlived its operation, a
// gossip-free deployment's own reads) stay roots and are counted by the
// caller.
func resolve(spans []span) {
	type actorNode struct{ actor, node int16 }
	roots := map[int16][]int32{}
	rootByReq := map[uint64]int32{}
	members := map[actorNode][]int32{}
	memberByKey := map[joinKey][]int32{}
	rpcOf := map[int32]int32{} // member span index -> its rpc.call index
	srvs := map[int16][]int32{}
	for i := range spans {
		s := &spans[i]
		switch s.Kind {
		case kClientAppend, kClientRead:
			roots[s.Actor] = append(roots[s.Actor], int32(i))
			if s.Req != 0 {
				rootByReq[s.Req] = int32(i)
			}
		case kMemberAppend, kMemberReplica, kMemberInvalidate, kMemberReadRange, kMemberTailWait, kMemberFrontier:
			members[actorNode{s.Actor, s.Node}] = append(members[actorNode{s.Actor, s.Node}], int32(i))
			k := joinKey{s.Kind, s.Node, s.Key}
			memberByKey[k] = append(memberByKey[k], int32(i))
		case kSrvAppend, kSrvReplica, kSrvInvalidate, kSrvReadRange, kSrvTailWait:
			srvs[s.Node] = append(srvs[s.Node], int32(i))
		}
	}
	for i := range spans {
		s := &spans[i]
		switch s.Kind {
		case kMemberAppend, kMemberReplica, kMemberInvalidate, kMemberReadRange, kMemberTailWait, kMemberFrontier:
			if r, ok := rootByReq[s.Req]; ok && s.Req != 0 {
				s.Parent = spans[r].ID
			} else if r := containing(spans, roots[s.Actor], s.Start, s.Start); r >= 0 {
				s.Parent = spans[r].ID
			}
		case kRPCCall:
			if m := containing(spans, members[actorNode{s.Actor, s.Node}], s.Start, s.End); m >= 0 {
				s.Parent = spans[m].ID
				rpcOf[m] = int32(i)
			}
		}
	}
	for i := range spans {
		s := &spans[i]
		switch s.Kind {
		case kSrvAppend, kSrvReplica, kSrvInvalidate, kSrvReadRange, kSrvTailWait:
			m := containing(spans, memberByKey[joinKey{memberKindOf[s.Kind], s.Node, s.Key}], s.Start, s.End)
			if m < 0 {
				continue
			}
			if c, ok := rpcOf[m]; ok {
				s.Parent = spans[c].ID
			}
		case kStoreAppend, kStoreRead:
			if p := containing(spans, srvs[s.Node], s.Start, s.End); p >= 0 {
				s.Parent = spans[p].ID
			}
		}
	}
}

// selfTimes returns, for every span, its duration minus the part of its
// interval that its children cover. Children may overlap each other (a
// fan-out) and may stick out of the parent (a straggler); the covered part
// is the union of the children's intervals clipped to the parent's.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32)
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			children[p] = append(children[p], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i := range spans {
		s := &spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// maxTraceSpans bounds the span file: the metrics use every span, the file
// keeps the first of them, which is enough to read a few thousand whole
// operations.
const maxTraceSpans = 100_000

type traceFile struct {
	Stamp    stampInfo   `json:"stamp"`
	Workload string      `json:"workload"`
	Recorded int         `json:"spans_recorded"`
	Written  int         `json:"spans_written"`
	Unit     string      `json:"time_unit"`
	Spans    []traceSpan `json:"spans"`
}

type traceSpan struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Actor  int16  `json:"actor"`
	Node   int16  `json:"node"`
	Req    uint64 `json:"req,omitempty"`
	Key    uint64 `json:"key,omitempty"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Self   int64  `json:"self"`
	N      int32  `json:"n,omitempty"`
}

func writeTrace(path, workload string, st stampInfo, spans []span, self []int64) error {
	n := len(spans)
	if n > maxTraceSpans {
		n = maxTraceSpans
	}
	tf := traceFile{Stamp: st, Workload: workload, Recorded: len(spans), Written: n, Unit: "ns since run start"}
	tf.Spans = make([]traceSpan, n)
	for i := 0; i < n; i++ {
		s := &spans[i]
		tf.Spans[i] = traceSpan{s.ID, s.Parent, s.Kind.String(), s.Actor, s.Node, s.Req, s.Key, s.Start, s.End, self[i], s.N}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(tf); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
