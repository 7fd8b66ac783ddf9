package main

import (
	"encoding/binary"
	"time"

	"repro/internal/core"
	"repro/internal/flstore"
	"repro/internal/rpc"
	"repro/internal/storage"
)

// The traced run measures each layer from outside, through wrappers around
// the public seams the benchmark is handed anyway. The untraced run uses
// none of them.

// fullMember is every surface of a maintainer handle that the client
// library probes for; both the RPC stub and *flstore.Maintainer have it.
type fullMember interface {
	flstore.MaintainerAPI
	flstore.ReplicaAPI
	flstore.RangeReadAPI
	flstore.InvalidationAPI
}

// reqOf reads the operation identifier off a batch's first body without
// checking it; bodies that are not the benchmark's give 0.
func reqOf(recs []*core.Record) uint64 {
	if len(recs) == 0 || len(recs[0].Body) < bodyHeader ||
		binary.LittleEndian.Uint32(recs[0].Body) != bodyMagic {
		return 0
	}
	b := recs[0].Body
	return reqID(int(binary.LittleEndian.Uint32(b[4:])), binary.LittleEndian.Uint64(b[8:]))
}

func firstLId(recs []*core.Record) uint64 {
	if len(recs) == 0 {
		return 0
	}
	return recs[0].LId
}

func firstOf(lids []uint64) uint64 {
	if len(lids) == 0 {
		return 0
	}
	return lids[0]
}

// tap is what every wrapper shares: where its spans go and whose they are.
// actor is -1 on the server side, node -1 where there is no maintainer.
type tap struct {
	rec         *recorder
	ln          *lane
	actor, node int16
}

func newTap(rec *recorder, actor, node int) tap {
	return tap{rec: rec, ln: rec.lane(), actor: int16(actor), node: int16(node)}
}

func (t *tap) span(k kind, start int64, req, key uint64, n int) {
	t.ln.add(span{Kind: k, Actor: t.actor, Node: t.node, Req: req, Key: key, Start: start, End: t.rec.now(), N: int32(n)})
}

// memberWrap times the calls one actor's client makes on one maintainer's
// stub.
type memberWrap struct {
	fullMember
	tap
}

func (w *memberWrap) Append(recs []*core.Record) ([]uint64, error) {
	if !w.rec.on.Load() {
		return w.fullMember.Append(recs)
	}
	start := w.rec.now()
	lids, err := w.fullMember.Append(recs)
	w.span(kMemberAppend, start, reqOf(recs), firstOf(lids), len(recs))
	return lids, err
}

func (w *memberWrap) ReplicaAppend(recs []*core.Record) error {
	if !w.rec.on.Load() {
		return w.fullMember.ReplicaAppend(recs)
	}
	start := w.rec.now()
	err := w.fullMember.ReplicaAppend(recs)
	w.span(kMemberReplica, start, reqOf(recs), firstLId(recs), len(recs))
	return err
}

func (w *memberWrap) Invalidate(rangeIdx int, upTo uint64) error {
	if !w.rec.on.Load() {
		return w.fullMember.Invalidate(rangeIdx, upTo)
	}
	start := w.rec.now()
	err := w.fullMember.Invalidate(rangeIdx, upTo)
	w.span(kMemberInvalidate, start, 0, upTo, 0)
	return err
}

func (w *memberWrap) ReadRange(q flstore.RangeQuery) (flstore.RangeResult, error) {
	if !w.rec.on.Load() {
		return w.fullMember.ReadRange(q)
	}
	start := w.rec.now()
	res, err := w.fullMember.ReadRange(q)
	w.span(kMemberReadRange, start, 0, q.Lo, len(res.Records))
	return res, err
}

func (w *memberWrap) TailWait(rangeIdx int, cursor uint64, maxWait time.Duration) (uint64, error) {
	if !w.rec.on.Load() {
		return w.fullMember.TailWait(rangeIdx, cursor, maxWait)
	}
	start := w.rec.now()
	f, err := w.fullMember.TailWait(rangeIdx, cursor, maxWait)
	w.span(kMemberTailWait, start, 0, cursor, 0)
	return f, err
}

func (w *memberWrap) RangeFrontier(rangeIdx int) (uint64, error) {
	if !w.rec.on.Load() {
		return w.fullMember.RangeFrontier(rangeIdx)
	}
	start := w.rec.now()
	f, err := w.fullMember.RangeFrontier(rangeIdx)
	w.span(kMemberFrontier, start, 0, uint64(rangeIdx), 0)
	return f, err
}

// rpcWrap times the calls one actor makes over the connection to one
// maintainer; N carries the payload bytes both ways. The connection itself
// is shared and closed by its owner.
type rpcWrap struct {
	inner rpc.Client
	tap
}

func (w *rpcWrap) Call(msgType uint8, payload []byte) ([]byte, error) {
	if !w.rec.on.Load() {
		return w.inner.Call(msgType, payload)
	}
	start := w.rec.now()
	resp, err := w.inner.Call(msgType, payload)
	w.span(kRPCCall, start, 0, uint64(msgType), len(payload)+len(resp))
	return resp, err
}

func (w *rpcWrap) Close() error { return nil }

// srvWrap times the maintainer's handlers behind its server. It embeds the
// maintainer, so ServeMaintainer's type assertions still find every
// surface.
type srvWrap struct {
	*flstore.Maintainer
	tap
}

func (w *srvWrap) Append(recs []*core.Record) ([]uint64, error) {
	if !w.rec.on.Load() {
		return w.Maintainer.Append(recs)
	}
	start := w.rec.now()
	lids, err := w.Maintainer.Append(recs)
	w.span(kSrvAppend, start, 0, firstOf(lids), len(recs))
	return lids, err
}

func (w *srvWrap) ReplicaAppend(recs []*core.Record) error {
	if !w.rec.on.Load() {
		return w.Maintainer.ReplicaAppend(recs)
	}
	start := w.rec.now()
	err := w.Maintainer.ReplicaAppend(recs)
	w.span(kSrvReplica, start, 0, firstLId(recs), len(recs))
	return err
}

func (w *srvWrap) Invalidate(rangeIdx int, upTo uint64) error {
	if !w.rec.on.Load() {
		return w.Maintainer.Invalidate(rangeIdx, upTo)
	}
	start := w.rec.now()
	err := w.Maintainer.Invalidate(rangeIdx, upTo)
	w.span(kSrvInvalidate, start, 0, upTo, 0)
	return err
}

func (w *srvWrap) ReadRange(q flstore.RangeQuery) (flstore.RangeResult, error) {
	if !w.rec.on.Load() {
		return w.Maintainer.ReadRange(q)
	}
	start := w.rec.now()
	res, err := w.Maintainer.ReadRange(q)
	w.span(kSrvReadRange, start, 0, q.Lo, len(res.Records))
	return res, err
}

func (w *srvWrap) TailWait(rangeIdx int, cursor uint64, maxWait time.Duration) (uint64, error) {
	if !w.rec.on.Load() {
		return w.Maintainer.TailWait(rangeIdx, cursor, maxWait)
	}
	start := w.rec.now()
	f, err := w.Maintainer.TailWait(rangeIdx, cursor, maxWait)
	// N carries the range so the wake-up analysis can pair the wait with
	// the ingest that ended it.
	w.span(kSrvTailWait, start, 0, cursor, rangeIdx)
	return f, err
}

// storeWrap times a maintainer's calls into its store.
type storeWrap struct {
	storage.Store
	tap
}

func (w *storeWrap) Append(r *core.Record) error {
	if !w.rec.on.Load() {
		return w.Store.Append(r)
	}
	start := w.rec.now()
	err := w.Store.Append(r)
	w.span(kStoreAppend, start, 0, r.LId, 1)
	return err
}

func (w *storeWrap) AppendBatch(rs []*core.Record) error {
	if !w.rec.on.Load() {
		return w.Store.AppendBatch(rs)
	}
	start := w.rec.now()
	err := w.Store.AppendBatch(rs)
	w.span(kStoreAppend, start, 0, firstLId(rs), len(rs))
	return err
}

func (w *storeWrap) Get(lid uint64) (*core.Record, error) {
	if !w.rec.on.Load() {
		return w.Store.Get(lid)
	}
	start := w.rec.now()
	r, err := w.Store.Get(lid)
	w.span(kStoreRead, start, 0, lid, 1)
	return r, err
}

func (w *storeWrap) Scan(minLId, maxLId uint64, fn func(*core.Record) bool) error {
	if !w.rec.on.Load() {
		return w.Store.Scan(minLId, maxLId, fn)
	}
	start := w.rec.now()
	n := 0
	err := w.Store.Scan(minLId, maxLId, func(r *core.Record) bool {
		n++
		return fn(r)
	})
	w.span(kStoreRead, start, 0, minLId, n)
	return err
}

// Durable forwards the store's durability report, which the maintainer
// reads through a type assertion the embedded interface would hide.
func (w *storeWrap) Durable() bool {
	d, ok := w.Store.(interface{ Durable() bool })
	return ok && d.Durable()
}
