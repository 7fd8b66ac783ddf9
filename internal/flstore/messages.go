package flstore

import (
	"encoding/binary"
	"encoding/json"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/replica"
	"repro/internal/rpc"
	"repro/internal/trace"
	"repro/internal/wire"
)

// The FLStore wire protocol is the table of rows below the payload shapes
// (DESIGN.md §3.8): a message is one rpc.Message built from a type byte, a
// name and two shapes. Every stub is the row's Call and every handler its
// Serve, so a message is spelled in one place; a new message is a row and,
// only if its payload is laid out like no other, a shape.

// Message types of the FLStore wire protocol.
const (
	msgAppend uint8 = iota + 1
	msgAppendAssigned
	msgAppendAfter
	msgRead
	_ // 05: the retired Scan row; its slot stays so no later type byte moves
	msgHead
	msgNextUnfilled
	msgPost
	msgLookup
	msgGetConfig
	msgStats
	msgAppendFor
	msgReplicaAppend
	msgRangeFrontier
	msgPullRange
	msgReplicas
	msgReadRange
	msgMultiRead
	msgTailWait
	msgInvalidate
	msgWatermark
	msgGossipVecs
	msgAdminEpochs
	msgAdminPropose
)

// --- payload shapes ---
//
// A shape is a Put/Get pair over one Go type. Get reads through a
// wire.Dec, which checks every bound; none of them does offset arithmetic.
// The hot shapes are plain functions, not closures, so a row's Call costs
// two indirect calls over hand-written code and no allocation.

type none = rpc.None

// The values of the payloads that are more than one Go value.
type (
	// afterReq is AppendAfter's request: the bound, then the batch.
	afterReq struct {
		Min  uint64
		Recs []*core.Record
	}
	// forReq is AppendFor's request: the range, then the batch.
	forReq struct {
		Range int
		Recs  []*core.Record
	}
	pullReq struct {
		Range int
		From  uint64
		Limit int
	}
	tailReq struct {
		Range   int
		Cursor  uint64
		MaxWait time.Duration
	}
	// boundReq is Invalidate's request.
	boundReq struct {
		Range int
		UpTo  uint64
	}
	// vecs is both halves of the gossip exchange.
	vecs struct{ Next, Dur []uint64 }
	// marks is ValidityWatermark's reply.
	marks struct{ Watermark, Announced uint64 }
)

var (
	u64Shape = rpc.Codec[uint64]{Put: putU64, Get: getU64}
	// rangeShape is a range index as RangeFrontier sends it, a u32.
	rangeShape = rpc.Codec[int]{
		Put: func(dst []byte, v int) ([]byte, error) { return binary.LittleEndian.AppendUint32(dst, uint32(v)), nil },
		Get: func(p []byte, _ *trace.Ctx) (int, error) {
			d := wire.NewDec(p)
			return int(d.U32()), d.Err()
		},
	}
	lidsShape = rpc.Codec[[]uint64]{Put: putLIds, Get: getLIds}
	// assignedShape is an append's reply: the LIds, then nextVec past them.
	assignedShape = rpc.Codec[[]uint64]{Get: getLIds,
		Put: func(dst []byte, lids []uint64) ([]byte, error) { return putLIds(dst, lids[:cap(lids)]) }}
	recordsShape = rpc.Codec[[]*core.Record]{Put: putRecords, Get: getRecords}
	// recordShape is one record with no count before it: Read's reply.
	recordShape = rpc.Codec[*core.Record]{
		Put: func(dst []byte, r *core.Record) ([]byte, error) {
			if dst == nil {
				dst = make([]byte, 0, core.EncodedSize(r))
			}
			return core.AppendRecord(dst, r), nil
		},
		Get: func(p []byte, _ *trace.Ctx) (*core.Record, error) {
			rec, _, err := core.DecodeRecord(p)
			return rec, err
		},
	}
	afterShape = rpc.Codec[afterReq]{
		Put: func(dst []byte, q afterReq) ([]byte, error) {
			return putRecords(binary.LittleEndian.AppendUint64(dst, q.Min), q.Recs)
		},
		Get: func(p []byte, tc *trace.Ctx) (afterReq, error) {
			d := wire.NewDec(p)
			min := d.U64()
			recs, err := restRecords(&d, tc)
			return afterReq{min, recs}, err
		},
	}
	forShape = rpc.Codec[forReq]{
		Put: func(dst []byte, q forReq) ([]byte, error) {
			return putRecords(binary.LittleEndian.AppendUint32(dst, uint32(q.Range)), q.Recs)
		},
		Get: func(p []byte, tc *trace.Ctx) (forReq, error) {
			d := wire.NewDec(p)
			rangeIdx := int(d.U32())
			recs, err := restRecords(&d, tc)
			return forReq{rangeIdx, recs}, err
		},
	}
	pullShape = rpc.Codec[pullReq]{
		Put: func(dst []byte, q pullReq) ([]byte, error) {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(q.Range))
			dst = binary.LittleEndian.AppendUint64(dst, q.From)
			return binary.LittleEndian.AppendUint32(dst, uint32(q.Limit)), nil
		},
		Get: func(p []byte, _ *trace.Ctx) (pullReq, error) {
			d := wire.NewDec(p)
			return pullReq{Range: int(d.U32()), From: d.U64(), Limit: int(d.U32())}, d.Err()
		},
	}
	tailShape     = rpc.Codec[tailReq]{Put: putTailReq, Get: getTailReq}
	boundShape    = rpc.Codec[boundReq]{Put: putBoundReq, Get: getBoundReq}
	queryShape    = rpc.Codec[RangeQuery]{Put: putRangeQuery, Get: getRangeQuery}
	resultShape   = rpc.Codec[RangeResult]{Put: putRangeResult, Get: getRangeResult}
	lookupShape   = rpc.Codec[LookupQuery]{Put: putLookup, Get: getLookup}
	postingsShape = rpc.Codec[[]Posting]{Put: putPostings, Get: getPostings}
	vecsShape     = rpc.Codec[vecs]{
		Put: func(dst []byte, v vecs) ([]byte, error) {
			dst, _ = putLIds(dst, v.Next)
			return putLIds(dst, v.Dur)
		},
		Get: func(p []byte, _ *trace.Ctx) (vecs, error) {
			d := wire.NewDec(p)
			return vecs{Next: readLIds(&d), Dur: readLIds(&d)}, d.Err()
		},
	}
	marksShape = rpc.Codec[marks]{
		Put: func(dst []byte, v marks) ([]byte, error) {
			if dst == nil {
				dst = make([]byte, 0, 16)
			}
			return binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(dst, v.Watermark), v.Announced), nil
		},
		Get: func(p []byte, _ *trace.Ctx) (marks, error) {
			d := wire.NewDec(p)
			return marks{Watermark: d.U64(), Announced: d.U64()}, d.Err()
		},
	}
)

// jsonShape is the layout of the control plane — configuration, stats,
// replica status, the epoch journal and proposals: rare traffic, where a
// self-describing encoding lets the surface grow a field without a
// hand-edited codec.
func jsonShape[T any]() rpc.Codec[T] {
	return rpc.Codec[T]{
		Put: func(dst []byte, v T) ([]byte, error) {
			b, err := json.Marshal(v)
			return append(dst, b...), err
		},
		Get: func(p []byte, _ *trace.Ctx) (T, error) {
			var v T
			err := json.Unmarshal(p, &v)
			return v, err
		},
	}
}

func putU64(dst []byte, v uint64) ([]byte, error) {
	return binary.LittleEndian.AppendUint64(dst, v), nil
}

func getU64(p []byte, _ *trace.Ctx) (uint64, error) {
	d := wire.NewDec(p)
	return d.U64(), d.Err()
}

func putLIds(dst []byte, lids []uint64) ([]byte, error) {
	if dst == nil {
		dst = make([]byte, 0, 4+8*len(lids))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(lids)))
	for _, l := range lids {
		dst = binary.LittleEndian.AppendUint64(dst, l)
	}
	return dst, nil
}

// readLIds reads a count-prefixed LId list off d.
func readLIds(d *wire.Dec) []uint64 {
	lids := make([]uint64, d.Count(8))
	for i := range lids {
		lids[i] = d.U64()
	}
	return lids
}

func getLIds(p []byte, _ *trace.Ctx) ([]uint64, error) {
	d := wire.NewDec(p)
	return readLIds(&d), d.Err()
}

// putRecords encodes a batch in the standard count-prefixed frame. The
// batch's trace context, if it has one, rides the traced envelope. A record
// the codec would truncate is refused here, on the sending side: past the
// encoder it is bytes that decode into some other record, or none.
func putRecords(dst []byte, recs []*core.Record) ([]byte, error) {
	if dst == nil { // a reply: records out of the store, checked on their way in
		return core.AppendRecords(make([]byte, 0, core.EncodedSizeRecords(recs)), recs), nil
	}
	if err := core.CheckEncodable(recs); err != nil {
		return dst, err
	}
	return core.AppendRecords(dst, recs), nil
}

func getRecords(p []byte, tc *trace.Ctx) ([]*core.Record, error) {
	d := wire.NewDec(p)
	return restRecords(&d, tc)
}

// restRecords decodes the record batch every batch-carrying payload ends
// with. The payload is borrowed; DecodeRecordsShared materializes
// retainable records in O(1) allocations per batch. The envelope's trace
// context is restamped onto them (the codec doesn't carry it), so the
// maintainer's hops join the caller's trace.
func restRecords(d *wire.Dec, tc *trace.Ctx) ([]*core.Record, error) {
	if err := d.Err(); err != nil {
		return nil, err
	}
	recs, _, err := core.DecodeRecordsShared(d.Rest())
	if err != nil {
		return nil, err
	}
	stampRecords(recs, tc)
	return recs, nil
}

func putTailReq(dst []byte, q tailReq) ([]byte, error) {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(q.Range)))
	dst = binary.LittleEndian.AppendUint64(dst, q.Cursor)
	return binary.LittleEndian.AppendUint64(dst, uint64(int64(q.MaxWait))), nil
}

func getTailReq(p []byte, _ *trace.Ctx) (tailReq, error) {
	d := wire.NewDec(p)
	return tailReq{Range: int(int32(d.U32())), Cursor: d.U64(), MaxWait: time.Duration(int64(d.U64()))}, d.Err()
}

func putBoundReq(dst []byte, q boundReq) ([]byte, error) {
	return binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(dst, uint64(q.Range)), q.UpTo), nil
}

func getBoundReq(p []byte, _ *trace.Ctx) (boundReq, error) {
	d := wire.NewDec(p)
	return boundReq{Range: int(d.U64()), UpTo: d.U64()}, d.Err()
}

func putRangeQuery(dst []byte, q RangeQuery) ([]byte, error) {
	dst = binary.LittleEndian.AppendUint64(dst, q.Lo)
	dst = binary.LittleEndian.AppendUint64(dst, q.Hi)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(q.Range)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(q.MaxRecords))
	return binary.LittleEndian.AppendUint32(dst, uint32(q.MaxBytes)), nil
}

func getRangeQuery(p []byte, tc *trace.Ctx) (RangeQuery, error) {
	d := wire.NewDec(p)
	q := RangeQuery{Lo: d.U64(), Hi: d.U64(), Range: int(int32(d.U32())), MaxRecords: int(d.U32()), MaxBytes: int(d.U32())}
	if tc != nil {
		q.Trace = *tc
	}
	return q, d.Err()
}

// putRangeResult encodes a range-read response: the covered-through
// position, then the record batch.
func putRangeResult(dst []byte, res RangeResult) ([]byte, error) {
	if dst == nil {
		dst = make([]byte, 0, 8+core.EncodedSizeRecords(res.Records))
	}
	return core.AppendRecords(binary.LittleEndian.AppendUint64(dst, res.CoveredHi), res.Records), nil
}

func getRangeResult(p []byte, _ *trace.Ctx) (RangeResult, error) {
	d := wire.NewDec(p)
	covered := d.U64()
	recs, err := restRecords(&d, nil)
	return RangeResult{Records: recs, CoveredHi: covered}, err
}

func putLookup(dst []byte, q LookupQuery) ([]byte, error) {
	dst = wire.AppendString(dst, q.Key)
	dst = append(dst, byte(q.Cmp))
	dst = wire.AppendString(dst, q.Value)
	dst = binary.LittleEndian.AppendUint64(dst, q.MaxLIdExclusive)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(q.Limit))
	return wire.AppendBool(dst, q.MostRecent), nil
}

func getLookup(p []byte, _ *trace.Ctx) (LookupQuery, error) {
	d := wire.NewDec(p)
	return LookupQuery{
		Key: d.Str(), Cmp: core.CmpOp(d.U8()), Value: d.Str(),
		MaxLIdExclusive: d.U64(), Limit: int(d.U32()), MostRecent: d.Bool(),
	}, d.Err()
}

func putPostings(dst []byte, ps []Posting) ([]byte, error) {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(ps)))
	for _, p := range ps {
		dst = wire.AppendString(dst, p.Key)
		dst = wire.AppendString(dst, p.Value)
		dst = binary.LittleEndian.AppendUint64(dst, p.LId)
	}
	return dst, nil
}

func getPostings(p []byte, _ *trace.Ctx) ([]Posting, error) {
	d := wire.NewDec(p)
	// A posting is at least two empty strings and an LId.
	ps := make([]Posting, d.Count(2+2+8))
	for i := range ps {
		ps[i] = Posting{Key: d.Str(), Value: d.Str(), LId: d.U64()}
	}
	return ps, d.Err()
}

// --- the protocol table ---

var (
	rowAppend         = rpc.Message[[]*core.Record, []uint64]{Type: msgAppend, Name: "Append", Req: recordsShape, Reply: assignedShape, TraceOf: batchTrace}
	rowAppendAssigned = rpc.Message[[]*core.Record, none]{Type: msgAppendAssigned, Name: "AppendAssigned", Req: recordsShape, Reply: rpc.Empty, TraceOf: batchTrace}
	rowAppendAfter    = rpc.Message[afterReq, []uint64]{Type: msgAppendAfter, Name: "AppendAfter", Req: afterShape, Reply: lidsShape,
		TraceOf: func(q afterReq) trace.Ctx { return batchTrace(q.Recs) }}
	rowRead         = rpc.Message[uint64, *core.Record]{Type: msgRead, Name: "Read", Req: u64Shape, Reply: recordShape}
	rowHead         = rpc.Message[none, uint64]{Type: msgHead, Name: "Head", Req: rpc.Empty, Reply: u64Shape}
	rowNextUnfilled = rpc.Message[none, uint64]{Type: msgNextUnfilled, Name: "NextUnfilled", Req: rpc.Empty, Reply: u64Shape}
	rowPost         = rpc.Message[[]Posting, none]{Type: msgPost, Name: "Post", Req: postingsShape, Reply: rpc.Empty}
	rowLookup       = rpc.Message[LookupQuery, []uint64]{Type: msgLookup, Name: "Lookup", Req: lookupShape, Reply: lidsShape}
	rowGetConfig    = rpc.Message[none, *Config]{Type: msgGetConfig, Name: "GetConfig", Req: rpc.Empty, Reply: jsonShape[*Config]()}
	rowStats        = rpc.Message[none, metrics.Snapshot]{Type: msgStats, Name: "Stats", Req: rpc.Empty, Reply: jsonShape[metrics.Snapshot]()}
	rowAppendFor    = rpc.Message[forReq, []uint64]{Type: msgAppendFor, Name: "AppendFor", Req: forShape, Reply: assignedShape,
		TraceOf: func(q forReq) trace.Ctx { return batchTrace(q.Recs) }}
	rowReplicaAppend = rpc.Message[[]*core.Record, none]{Type: msgReplicaAppend, Name: "ReplicaAppend", Req: recordsShape, Reply: rpc.Empty, TraceOf: batchTrace}
	rowRangeFrontier = rpc.Message[int, uint64]{Type: msgRangeFrontier, Name: "RangeFrontier", Req: rangeShape, Reply: u64Shape}
	rowPullRange     = rpc.Message[pullReq, []*core.Record]{Type: msgPullRange, Name: "PullRange", Req: pullShape, Reply: recordsShape}
	rowReplicas      = rpc.Message[none, *replica.ClusterStatus]{Type: msgReplicas, Name: "Replicas", Req: rpc.Empty, Reply: jsonShape[*replica.ClusterStatus]()}
	rowReadRange     = rpc.Message[RangeQuery, RangeResult]{Type: msgReadRange, Name: "ReadRange", Req: queryShape, Reply: resultShape,
		TraceOf: func(q RangeQuery) trace.Ctx { return q.Trace }}
	rowMultiRead = rpc.Message[[]uint64, []*core.Record]{Type: msgMultiRead, Name: "MultiRead", Req: lidsShape, Reply: recordsShape}
	// TailWait is detached: a parked long-poll must not head-of-line-block
	// the pipelined requests behind it on a shared connection.
	rowTailWait = rpc.Message[tailReq, uint64]{Type: msgTailWait, Name: "TailWait", Detached: true, Req: tailShape, Reply: u64Shape}
	// Invalidate is the standalone announcement catch-up replays (a live
	// copy announces itself): two fixed words, no reply body.
	rowInvalidate   = rpc.Message[boundReq, none]{Type: msgInvalidate, Name: "Invalidate", Req: boundShape, Reply: rpc.Empty}
	rowWatermark    = rpc.Message[uint64, marks]{Type: msgWatermark, Name: "Watermark", Req: u64Shape, Reply: marksShape}
	rowGossipVecs   = rpc.Message[vecs, vecs]{Type: msgGossipVecs, Name: "GossipVecs", Req: vecsShape, Reply: vecsShape}
	rowAdminEpochs  = rpc.Message[none, []EpochStatus]{Type: msgAdminEpochs, Name: "AdminEpochs", Req: rpc.Empty, Reply: jsonShape[[]EpochStatus]()}
	rowAdminPropose = rpc.Message[EpochProposal, EpochStatus]{Type: msgAdminPropose, Name: "AdminPropose", Req: jsonShape[EpochProposal](), Reply: jsonShape[EpochStatus]()}
)

// --- server adapters ---

// ServeMaintainer registers RPC handlers exposing m on srv.
func ServeMaintainer(srv *rpc.Server, m MaintainerAPI) {
	rowAppend.Serve(srv, m.Append)
	rowAppendAssigned.Serve(srv, rpc.NoReply(m.AppendAssigned))
	rowAppendAfter.Serve(srv, func(q afterReq) ([]uint64, error) { return m.AppendAfter(q.Min, q.Recs) })
	rowRead.Serve(srv, m.Read)
	rowHead.Serve(srv, rpc.NoArg(m.Head))
	rowNextUnfilled.Serve(srv, rpc.NoArg(m.NextUnfilled))
	rowGossipVecs.Serve(srv, func(q vecs) (vecs, error) {
		next, dur, err := m.GossipVecs(q.Next, q.Dur)
		return vecs{next, dur}, err
	})

	// Replication: acting-primary appends, follower copies, the catch-up
	// feed and per-range frontiers.
	rowAppendFor.Serve(srv, func(q forReq) ([]uint64, error) { return m.AppendFor(q.Range, q.Recs) })
	rowReplicaAppend.Serve(srv, rpc.NoReply(m.ReplicaAppend))
	rowRangeFrontier.Serve(srv, m.RangeFrontier)
	rowPullRange.Serve(srv, func(q pullReq) ([]*core.Record, error) { return m.PullRange(q.Range, q.From, q.Limit) })

	// Hermes-style invalidation.
	rowInvalidate.Serve(srv, func(q boundReq) (none, error) { return none{}, m.Invalidate(q.Range, q.UpTo) })
	rowWatermark.Serve(srv, func(r uint64) (marks, error) {
		wm, ann, err := m.ValidityWatermark(int(r))
		return marks{wm, ann}, err
	})

	// Batched reads.
	rowReadRange.Serve(srv, m.ReadRange)
	rowMultiRead.Serve(srv, m.MultiRead)
	rowTailWait.Serve(srv, func(q tailReq) (uint64, error) { return m.TailWait(q.Range, q.Cursor, q.MaxWait) })
}

// ServeIndexer registers RPC handlers exposing ix on srv.
func ServeIndexer(srv *rpc.Server, ix IndexerAPI) {
	rowPost.Serve(srv, rpc.NoReply(ix.Post))
	rowLookup.Serve(srv, ix.Lookup)
}

// ServeController registers RPC handlers exposing c on srv.
func ServeController(srv *rpc.Server, c ControllerAPI) {
	rowGetConfig.Serve(srv, rpc.NoArg(c.GetConfig))
}

// ServeStats registers the Stats handler on srv: a snapshot of every
// series in reg. The controller exposes it so ops tooling (logctl stats)
// can read a node set's metrics over the same RPC substrate the data path
// uses, without requiring the HTTP exposition endpoint.
func ServeStats(srv *rpc.Server, reg *metrics.Registry) {
	rowStats.Serve(srv, func(none) (metrics.Snapshot, error) { return reg.Snapshot(), nil })
}

// ServeReplicas registers the Replicas handler on srv: a
// replica.ClusterStatus assembled by fn at request time. The controller
// exposes it so `logctl replicas` can render per-group membership, health,
// and catch-up lag.
func ServeReplicas(srv *rpc.Server, fn func() (*replica.ClusterStatus, error)) {
	rowReplicas.Serve(srv, rpc.NoArg(fn))
}

// --- client adapters ---

// maintainerClient implements MaintainerAPI over an rpc.Client.
type maintainerClient struct{ c rpc.Client }

// NewMaintainerClient wraps an RPC client as a MaintainerAPI.
func NewMaintainerClient(c rpc.Client) MaintainerAPI { return &maintainerClient{c: c} }

// stampLIds writes the positions a remote append assigned onto the
// caller's records, as in process, keeping what follows them (assignedShape)
// in their capacity; a batch buffered for later release was assigned none.
func stampLIds(recs []*core.Record, lids []uint64) []uint64 {
	lids = lids[:min(len(recs), len(lids))]
	for i, lid := range lids {
		recs[i].LId = lid
	}
	return lids
}

func (mc *maintainerClient) Append(recs []*core.Record) ([]uint64, error) {
	lids, err := rowAppend.Call(mc.c, recs)
	return stampLIds(recs, lids), err
}

func (mc *maintainerClient) AppendAssigned(recs []*core.Record) error {
	_, err := rowAppendAssigned.Call(mc.c, recs)
	return err
}

func (mc *maintainerClient) AppendAfter(minLId uint64, recs []*core.Record) ([]uint64, error) {
	lids, err := rowAppendAfter.Call(mc.c, afterReq{minLId, recs})
	return stampLIds(recs, lids), err
}

func (mc *maintainerClient) Read(lid uint64) (*core.Record, error) {
	return rowRead.Call(mc.c, lid)
}

func (mc *maintainerClient) Head() (uint64, error) { return rowHead.Call(mc.c, none{}) }

func (mc *maintainerClient) NextUnfilled() (uint64, error) {
	return rowNextUnfilled.Call(mc.c, none{})
}

func (mc *maintainerClient) AppendFor(rangeIdx int, recs []*core.Record) ([]uint64, error) {
	lids, err := rowAppendFor.Call(mc.c, forReq{rangeIdx, recs})
	return stampLIds(recs, lids), err
}

func (mc *maintainerClient) ReplicaAppend(recs []*core.Record) error {
	_, err := rowReplicaAppend.Call(mc.c, recs)
	return err
}

func (mc *maintainerClient) RangeFrontier(rangeIdx int) (uint64, error) {
	return rowRangeFrontier.Call(mc.c, rangeIdx)
}

func (mc *maintainerClient) PullRange(rangeIdx int, fromLId uint64, limit int) ([]*core.Record, error) {
	return rowPullRange.Call(mc.c, pullReq{rangeIdx, fromLId, limit})
}

func (mc *maintainerClient) ReadRange(q RangeQuery) (RangeResult, error) {
	return rowReadRange.Call(mc.c, q)
}

func (mc *maintainerClient) MultiRead(lids []uint64) ([]*core.Record, error) {
	return rowMultiRead.Call(mc.c, lids)
}

func (mc *maintainerClient) TailWait(rangeIdx int, cursor uint64, maxWait time.Duration) (uint64, error) {
	return rowTailWait.Call(mc.c, tailReq{rangeIdx, cursor, maxWait})
}

func (mc *maintainerClient) Invalidate(rangeIdx int, upTo uint64) error {
	_, err := rowInvalidate.Call(mc.c, boundReq{rangeIdx, upTo})
	return err
}

func (mc *maintainerClient) ValidityWatermark(rangeIdx int) (uint64, uint64, error) {
	m, err := rowWatermark.Call(mc.c, uint64(rangeIdx))
	return m.Watermark, m.Announced, err
}

func (mc *maintainerClient) GossipVecs(next, dur []uint64) ([]uint64, []uint64, error) {
	v, err := rowGossipVecs.Call(mc.c, vecs{next, dur})
	return v.Next, v.Dur, err
}

// indexerClient implements IndexerAPI over an rpc.Client.
type indexerClient struct{ c rpc.Client }

// NewIndexerClient wraps an RPC client as an IndexerAPI.
func NewIndexerClient(c rpc.Client) IndexerAPI { return &indexerClient{c: c} }

func (ic *indexerClient) Post(entries []Posting) error {
	_, err := rowPost.Call(ic.c, entries)
	return err
}

func (ic *indexerClient) Lookup(q LookupQuery) ([]uint64, error) {
	return rowLookup.Call(ic.c, q)
}

// controllerClient implements ControllerAPI over an rpc.Client.
type controllerClient struct{ c rpc.Client }

// NewControllerClient wraps an RPC client as a ControllerAPI.
func NewControllerClient(c rpc.Client) ControllerAPI { return &controllerClient{c: c} }

func (cc *controllerClient) GetConfig() (*Config, error) {
	return rowGetConfig.Call(cc.c, none{})
}
