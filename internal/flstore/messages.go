package flstore

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/replica"
	"repro/internal/rpc"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Message types of the FLStore wire protocol.
const (
	msgAppend uint8 = iota + 1
	msgAppendAssigned
	msgAppendAfter
	msgRead
	msgScan
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

// Smallest encodings of the variable-size elements the control-plane
// decoders count-prefix: wire.AppendString is a u16 length plus bytes, a
// posting two strings and a u64 LId. Decoders size their result by what
// the remaining bytes can hold at these sizes, never by the claimed count
// alone.
const (
	minStringSize  = 2
	minPostingSize = 2*minStringSize + 8
)

// --- encoding helpers ---

func appendRule(dst []byte, ru core.Rule) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, ru.MinLId)
	dst = binary.LittleEndian.AppendUint64(dst, ru.MaxLId)
	dst = binary.LittleEndian.AppendUint64(dst, ru.MaxLIdExclusive)
	var hasHost byte
	if ru.HasHost {
		hasHost = 1
	}
	dst = append(dst, hasHost)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(ru.Host))
	dst = binary.LittleEndian.AppendUint64(dst, ru.MinTOId)
	dst = binary.LittleEndian.AppendUint64(dst, ru.MaxTOId)
	dst = wire.AppendString(dst, ru.TagKey)
	dst = append(dst, byte(ru.TagCmp))
	dst = wire.AppendString(dst, ru.TagValue)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(ru.Limit))
	var mr byte
	if ru.MostRecent {
		mr = 1
	}
	dst = append(dst, mr)
	return dst
}

func decodeRule(buf []byte) (core.Rule, int, error) {
	var ru core.Rule
	if len(buf) < 8*3+1+2+8*2 {
		return ru, 0, errors.New("flstore: short rule")
	}
	ru.MinLId = binary.LittleEndian.Uint64(buf)
	ru.MaxLId = binary.LittleEndian.Uint64(buf[8:])
	ru.MaxLIdExclusive = binary.LittleEndian.Uint64(buf[16:])
	ru.HasHost = buf[24] == 1
	ru.Host = core.DCID(binary.LittleEndian.Uint16(buf[25:]))
	ru.MinTOId = binary.LittleEndian.Uint64(buf[27:])
	ru.MaxTOId = binary.LittleEndian.Uint64(buf[35:])
	off := 43
	key, n, err := wire.DecodeString(buf[off:])
	if err != nil {
		return ru, 0, err
	}
	ru.TagKey = key
	off += n
	if len(buf) < off+1 {
		return ru, 0, errors.New("flstore: short rule cmp")
	}
	ru.TagCmp = core.CmpOp(buf[off])
	off++
	val, n, err := wire.DecodeString(buf[off:])
	if err != nil {
		return ru, 0, err
	}
	ru.TagValue = val
	off += n
	if len(buf) < off+5 {
		return ru, 0, errors.New("flstore: short rule tail")
	}
	ru.Limit = int(binary.LittleEndian.Uint32(buf[off:]))
	ru.MostRecent = buf[off+4] == 1
	off += 5
	return ru, off, nil
}

func appendLIds(dst []byte, lids []uint64) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(lids)))
	for _, l := range lids {
		dst = binary.LittleEndian.AppendUint64(dst, l)
	}
	return dst
}

func decodeLIds(buf []byte) ([]uint64, int, error) {
	if len(buf) < 4 {
		return nil, 0, errors.New("flstore: short lid list")
	}
	n := int(binary.LittleEndian.Uint32(buf))
	if len(buf) < 4+8*n {
		return nil, 0, errors.New("flstore: short lid list body")
	}
	lids := make([]uint64, n)
	for i := range lids {
		lids[i] = binary.LittleEndian.Uint64(buf[4+8*i:])
	}
	return lids, 4 + 8*n, nil
}

// appendRangeResult encodes a range-read response: the covered-through
// position, then the record batch in the standard count-prefixed frame.
func appendRangeResult(dst []byte, res RangeResult) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, res.CoveredHi)
	return core.AppendRecords(dst, res.Records)
}

// decodeRangeResult decodes a range-read response envelope. The batch is
// arena-decoded (DecodeRecordsShared), so a response of N records costs
// O(1) allocations regardless of N.
func decodeRangeResult(buf []byte) (RangeResult, error) {
	var res RangeResult
	if len(buf) < 8 {
		return res, errors.New("flstore: short range-read response")
	}
	res.CoveredHi = binary.LittleEndian.Uint64(buf)
	recs, _, err := core.DecodeRecordsShared(buf[8:])
	if err != nil {
		return res, err
	}
	res.Records = recs
	return res, nil
}

func appendPostings(dst []byte, ps []Posting) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(ps)))
	for _, p := range ps {
		dst = wire.AppendString(dst, p.Key)
		dst = wire.AppendString(dst, p.Value)
		dst = binary.LittleEndian.AppendUint64(dst, p.LId)
	}
	return dst
}

func decodePostings(buf []byte) ([]Posting, error) {
	if len(buf) < 4 {
		return nil, errors.New("flstore: short postings")
	}
	n := int(binary.LittleEndian.Uint32(buf))
	off := 4
	// A posting is at least two empty strings and an LId; a count the
	// remaining bytes cannot hold fails in the loop, not in the allocator.
	ps := make([]Posting, 0, min(n, (len(buf)-off)/minPostingSize))
	for i := 0; i < n; i++ {
		key, used, err := wire.DecodeString(buf[off:])
		if err != nil {
			return nil, err
		}
		off += used
		val, used, err := wire.DecodeString(buf[off:])
		if err != nil {
			return nil, err
		}
		off += used
		if len(buf) < off+8 {
			return nil, errors.New("flstore: short posting lid")
		}
		ps = append(ps, Posting{Key: key, Value: val, LId: binary.LittleEndian.Uint64(buf[off:])})
		off += 8
	}
	return ps, nil
}

func appendConfig(dst []byte, cfg *Config) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(cfg.Placement.NumMaintainers))
	dst = binary.LittleEndian.AppendUint64(dst, cfg.Placement.BatchSize)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(cfg.MaintainerAddrs)))
	for _, a := range cfg.MaintainerAddrs {
		dst = wire.AppendString(dst, a)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(cfg.IndexerAddrs)))
	for _, a := range cfg.IndexerAddrs {
		dst = wire.AppendString(dst, a)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(cfg.Epochs)))
	for _, e := range cfg.Epochs {
		dst = binary.LittleEndian.AppendUint64(dst, e.FirstLId)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(e.Placement.NumMaintainers))
		dst = binary.LittleEndian.AppendUint64(dst, e.Placement.BatchSize)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(e.MaintainerAddrs)))
		for _, a := range e.MaintainerAddrs {
			dst = wire.AppendString(dst, a)
		}
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(cfg.Replication))
	dst = wire.AppendString(dst, cfg.AckPolicy)
	return dst
}

func decodeConfig(buf []byte) (*Config, error) {
	if len(buf) < 12 {
		return nil, errors.New("flstore: short config")
	}
	cfg := &Config{}
	cfg.Placement.NumMaintainers = int(binary.LittleEndian.Uint32(buf))
	cfg.Placement.BatchSize = binary.LittleEndian.Uint64(buf[4:])
	off := 12
	readAddrs := func() ([]string, error) {
		if len(buf) < off+4 {
			return nil, errors.New("flstore: short config addrs")
		}
		n := int(binary.LittleEndian.Uint32(buf[off:]))
		off += 4
		addrs := make([]string, 0, min(n, (len(buf)-off)/minStringSize))
		for i := 0; i < n; i++ {
			s, used, err := wire.DecodeString(buf[off:])
			if err != nil {
				return nil, err
			}
			addrs = append(addrs, s)
			off += used
		}
		return addrs, nil
	}
	var err error
	if cfg.MaintainerAddrs, err = readAddrs(); err != nil {
		return nil, err
	}
	if cfg.IndexerAddrs, err = readAddrs(); err != nil {
		return nil, err
	}
	if len(buf) < off+4 {
		return nil, errors.New("flstore: short config epochs")
	}
	n := int(binary.LittleEndian.Uint32(buf[off:]))
	off += 4
	for i := 0; i < n; i++ {
		if len(buf) < off+20 {
			return nil, errors.New("flstore: short config epoch")
		}
		e := Epoch{
			FirstLId: binary.LittleEndian.Uint64(buf[off:]),
			Placement: Placement{
				NumMaintainers: int(binary.LittleEndian.Uint32(buf[off+8:])),
				BatchSize:      binary.LittleEndian.Uint64(buf[off+12:]),
			},
		}
		off += 20
		if len(buf) < off+4 {
			return nil, errors.New("flstore: short config epoch addrs")
		}
		na := int(binary.LittleEndian.Uint32(buf[off:]))
		off += 4
		for j := 0; j < na; j++ {
			s, used, err := wire.DecodeString(buf[off:])
			if err != nil {
				return nil, err
			}
			e.MaintainerAddrs = append(e.MaintainerAddrs, s)
			off += used
		}
		cfg.Epochs = append(cfg.Epochs, e)
	}
	if len(buf) < off+4 {
		return nil, errors.New("flstore: short config replication")
	}
	cfg.Replication = int(binary.LittleEndian.Uint32(buf[off:]))
	off += 4
	ack, _, err := wire.DecodeString(buf[off:])
	if err != nil {
		return nil, err
	}
	cfg.AckPolicy = ack
	return cfg, nil
}

// --- server adapters ---

// batchPrefix is the width of the fixed header that precedes the record
// batch in a batch-carrying request: AppendAfter's u64 bound, AppendFor's
// u32 range index, nothing for the rest. Stub and handler both frame by it.
func batchPrefix(msg uint8) int {
	switch msg {
	case msgAppendAfter:
		return 8
	case msgAppendFor:
		return 4
	}
	return 0
}

// serveBatch is the handler behind the five batch-carrying calls. The
// request payload is borrowed (it aliases the connection's read scratch);
// DecodeRecordsShared materializes retainable records in O(1) allocations
// per batch. The RPC envelope's trace context is restamped onto the decoded
// records (the codec doesn't carry it), so the maintainer's hops join the
// caller's trace; untraced requests arrive with the zero context. The calls
// that assign positions reply with the LIds, the two that ingest placed
// records with an empty body.
func serveBatch(m MaintainerAPI, msg uint8, tc *trace.Ctx, p []byte) ([]byte, error) {
	n := batchPrefix(msg)
	if len(p) < n {
		return nil, errors.New("flstore: short append request")
	}
	recs, _, err := core.DecodeRecordsShared(p[n:])
	if err != nil {
		return nil, err
	}
	stampRecords(recs, tc)
	var lids []uint64
	switch msg {
	case msgAppend:
		lids, err = m.Append(recs)
	case msgAppendAfter:
		lids, err = m.AppendAfter(binary.LittleEndian.Uint64(p), recs)
	case msgAppendFor:
		lids, err = m.AppendFor(int(binary.LittleEndian.Uint32(p)), recs)
	case msgAppendAssigned:
		return nil, m.AppendAssigned(recs)
	case msgReplicaAppend:
		return nil, m.ReplicaAppend(recs)
	}
	if err != nil {
		return nil, err
	}
	return appendLIds(nil, lids), nil
}

// u64Reply encodes the reply of the calls that answer with one position.
func u64Reply(v uint64, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	return binary.LittleEndian.AppendUint64(nil, v), nil
}

// ServeMaintainer registers RPC handlers exposing m on srv.
func ServeMaintainer(srv *rpc.Server, m MaintainerAPI) {
	for _, msg := range []uint8{msgAppend, msgAppendAssigned, msgAppendAfter, msgAppendFor, msgReplicaAppend} {
		srv.HandleTraced(msg, func(tc *trace.Ctx, p []byte) ([]byte, error) {
			return serveBatch(m, msg, tc, p)
		})
	}
	srv.Handle(msgRead, func(p []byte) ([]byte, error) {
		if len(p) < 8 {
			return nil, errors.New("flstore: short Read request")
		}
		rec, err := m.Read(binary.LittleEndian.Uint64(p))
		if err != nil {
			return nil, err
		}
		return core.MarshalRecord(rec), nil
	})
	srv.Handle(msgScan, func(p []byte) ([]byte, error) {
		ru, _, err := decodeRule(p)
		if err != nil {
			return nil, err
		}
		recs, err := m.Scan(ru)
		if err != nil {
			return nil, err
		}
		return core.AppendRecords(make([]byte, 0, core.EncodedSizeRecords(recs)), recs), nil
	})
	srv.Handle(msgHead, func(p []byte) ([]byte, error) { return u64Reply(m.Head()) })
	srv.Handle(msgNextUnfilled, func(p []byte) ([]byte, error) { return u64Reply(m.NextUnfilled()) })
	srv.Handle(msgGossipVecs, func(p []byte) ([]byte, error) {
		next, n, err := decodeLIds(p)
		if err != nil {
			return nil, err
		}
		dur, _, err := decodeLIds(p[n:])
		if err != nil {
			return nil, err
		}
		myNext, myDur, err := m.GossipVecs(next, dur)
		if err != nil {
			return nil, err
		}
		return appendLIds(appendLIds(nil, myNext), myDur), nil
	})

	// Replication: the catch-up feed and per-range frontiers (the two
	// batch-carrying replica calls are registered above).
	srv.Handle(msgRangeFrontier, func(p []byte) ([]byte, error) {
		if len(p) < 4 {
			return nil, errors.New("flstore: short RangeFrontier request")
		}
		return u64Reply(m.RangeFrontier(int(binary.LittleEndian.Uint32(p))))
	})
	srv.Handle(msgPullRange, func(p []byte) ([]byte, error) {
		if len(p) < 16 {
			return nil, errors.New("flstore: short PullRange request")
		}
		rangeIdx := int(binary.LittleEndian.Uint32(p))
		from := binary.LittleEndian.Uint64(p[4:])
		limit := int(binary.LittleEndian.Uint32(p[12:]))
		recs, err := m.PullRange(rangeIdx, from, limit)
		if err != nil {
			return nil, err
		}
		return core.AppendRecords(make([]byte, 0, core.EncodedSizeRecords(recs)), recs), nil
	})

	// Hermes-style invalidation. msgInvalidate is the fast-path control
	// frame riding ahead of every fan-out payload: two fixed words, no
	// response body, decoded in place.
	srv.Handle(msgInvalidate, func(p []byte) ([]byte, error) {
		if len(p) < 16 {
			return nil, errors.New("flstore: short Invalidate request")
		}
		return nil, m.Invalidate(int(binary.LittleEndian.Uint64(p)), binary.LittleEndian.Uint64(p[8:]))
	})
	srv.Handle(msgWatermark, func(p []byte) ([]byte, error) {
		if len(p) < 8 {
			return nil, errors.New("flstore: short Watermark request")
		}
		wm, ann, err := m.ValidityWatermark(int(binary.LittleEndian.Uint64(p)))
		if err != nil {
			return nil, err
		}
		resp := binary.LittleEndian.AppendUint64(make([]byte, 0, 16), wm)
		return binary.LittleEndian.AppendUint64(resp, ann), nil
	})

	// Batched reads. msgTailWait is registered detached: a parked long-poll
	// must not head-of-line-block the pipelined requests behind it on a
	// shared connection.
	srv.HandleTraced(msgReadRange, func(tc *trace.Ctx, p []byte) ([]byte, error) {
		if len(p) < 28 {
			return nil, errors.New("flstore: short ReadRange request")
		}
		q := RangeQuery{
			Lo:         binary.LittleEndian.Uint64(p),
			Hi:         binary.LittleEndian.Uint64(p[8:]),
			Range:      int(int32(binary.LittleEndian.Uint32(p[16:]))),
			MaxRecords: int(binary.LittleEndian.Uint32(p[20:])),
			MaxBytes:   int(binary.LittleEndian.Uint32(p[24:])),
			Trace:      *tc,
		}
		res, err := m.ReadRange(q)
		if err != nil {
			return nil, err
		}
		return appendRangeResult(make([]byte, 0, 12+core.EncodedSizeRecords(res.Records)), res), nil
	})
	srv.Handle(msgMultiRead, func(p []byte) ([]byte, error) {
		lids, _, err := decodeLIds(p)
		if err != nil {
			return nil, err
		}
		recs, err := m.MultiRead(lids)
		if err != nil {
			return nil, err
		}
		return core.AppendRecords(make([]byte, 0, core.EncodedSizeRecords(recs)), recs), nil
	})
	srv.HandleDetached(msgTailWait, func(p []byte) ([]byte, error) {
		if len(p) < 20 {
			return nil, errors.New("flstore: short TailWait request")
		}
		rangeIdx := int(int32(binary.LittleEndian.Uint32(p)))
		cursor := binary.LittleEndian.Uint64(p[4:])
		maxWait := time.Duration(int64(binary.LittleEndian.Uint64(p[12:])))
		return u64Reply(m.TailWait(rangeIdx, cursor, maxWait))
	})
}

// ServeIndexer registers RPC handlers exposing ix on srv.
func ServeIndexer(srv *rpc.Server, ix IndexerAPI) {
	srv.Handle(msgPost, func(p []byte) ([]byte, error) {
		ps, err := decodePostings(p)
		if err != nil {
			return nil, err
		}
		return nil, ix.Post(ps)
	})
	srv.Handle(msgLookup, func(p []byte) ([]byte, error) {
		q, err := decodeLookup(p)
		if err != nil {
			return nil, err
		}
		lids, err := ix.Lookup(q)
		if err != nil {
			return nil, err
		}
		return appendLIds(nil, lids), nil
	})
}

// ServeController registers RPC handlers exposing c on srv.
func ServeController(srv *rpc.Server, c ControllerAPI) {
	srv.Handle(msgGetConfig, func(p []byte) ([]byte, error) {
		cfg, err := c.GetConfig()
		if err != nil {
			return nil, err
		}
		return appendConfig(nil, cfg), nil
	})
}

// ServeStats registers the msgStats handler on srv: a JSON-encoded snapshot
// of every series in reg. The controller exposes it so ops tooling (logctl
// stats) can read a node set's metrics over the same RPC substrate the data
// path uses, without requiring the HTTP exposition endpoint.
func ServeStats(srv *rpc.Server, reg *metrics.Registry) {
	srv.Handle(msgStats, func(p []byte) ([]byte, error) {
		return json.Marshal(reg)
	})
}

// ServeReplicas registers the msgReplicas handler on srv: a JSON-encoded
// replica.ClusterStatus assembled by fn at request time. The controller
// exposes it so `logctl replicas` can render per-group membership, health,
// and catch-up lag.
func ServeReplicas(srv *rpc.Server, fn func() (*replica.ClusterStatus, error)) {
	srv.Handle(msgReplicas, func(p []byte) ([]byte, error) {
		st, err := fn()
		if err != nil {
			return nil, err
		}
		return json.Marshal(st)
	})
}

func appendLookup(dst []byte, q LookupQuery) []byte {
	dst = wire.AppendString(dst, q.Key)
	dst = append(dst, byte(q.Cmp))
	dst = wire.AppendString(dst, q.Value)
	dst = binary.LittleEndian.AppendUint64(dst, q.MaxLIdExclusive)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(q.Limit))
	var mr byte
	if q.MostRecent {
		mr = 1
	}
	return append(dst, mr)
}

func decodeLookup(buf []byte) (LookupQuery, error) {
	var q LookupQuery
	key, off, err := wire.DecodeString(buf)
	if err != nil {
		return q, err
	}
	q.Key = key
	if len(buf) < off+1 {
		return q, errors.New("flstore: short lookup cmp")
	}
	q.Cmp = core.CmpOp(buf[off])
	off++
	val, used, err := wire.DecodeString(buf[off:])
	if err != nil {
		return q, err
	}
	q.Value = val
	off += used
	if len(buf) < off+13 {
		return q, errors.New("flstore: short lookup tail")
	}
	q.MaxLIdExclusive = binary.LittleEndian.Uint64(buf[off:])
	q.Limit = int(binary.LittleEndian.Uint32(buf[off+8:]))
	q.MostRecent = buf[off+12] == 1
	return q, nil
}

// --- client adapters ---

// mapRemoteError restores the identity of well-known sentinel errors that
// crossed the wire as strings, so call sites can use errors.Is uniformly
// whether the API is local or remote. Overload rejections are rebuilt as
// typed OverloadErrors carrying the retry-after hint the rpc layer decoded
// from the message suffix.
func mapRemoteError(err error) error {
	if err == nil || !rpc.IsRemote(err) {
		return err
	}
	msg := err.Error()
	switch {
	case strings.Contains(msg, core.ErrNoSuchRecord.Error()):
		return fmt.Errorf("%w (remote)", core.ErrNoSuchRecord)
	case strings.Contains(msg, core.ErrPastHead.Error()):
		return fmt.Errorf("%w: %s", core.ErrPastHead, msg)
	case strings.Contains(msg, ErrOverloaded.Error()):
		return &OverloadError{RetryAfter: RetryAfter(err)}
	case strings.Contains(msg, storage.ErrDuplicate.Error()):
		return fmt.Errorf("%w: %s", storage.ErrDuplicate, msg)
	case strings.Contains(msg, ErrWrongMaintainer.Error()):
		return fmt.Errorf("%w: %s", ErrWrongMaintainer, msg)
	case strings.Contains(msg, ErrNotReplica.Error()):
		return fmt.Errorf("%w: %s", ErrNotReplica, msg)
	case strings.Contains(msg, ErrOrderBacklog.Error()):
		return fmt.Errorf("%w (remote)", ErrOrderBacklog)
	case strings.Contains(msg, ErrEpochSealed.Error()):
		// The boundary rides the error string ("new epoch starts at LId
		// %d") so the remote client recovers it without a round trip; an
		// unparsable message still maps to the sentinel.
		var first uint64
		if i := strings.Index(msg, "new epoch starts at LId "); i >= 0 {
			fmt.Sscanf(msg[i:], "new epoch starts at LId %d", &first)
		}
		return &EpochSealedError{FirstLId: first}
	case strings.Contains(msg, ErrReadBlocked.Error()):
		hint := RetryAfter(err)
		if hint <= 0 {
			hint = readBlockHint
		}
		return &ReadBlockedError{RetryAfter: hint}
	}
	return err
}

// maintainerClient implements MaintainerAPI over an rpc.Client.
type maintainerClient struct{ c rpc.Client }

// NewMaintainerClient wraps an RPC client as a MaintainerAPI.
func NewMaintainerClient(c rpc.Client) MaintainerAPI { return &maintainerClient{c: c} }

// callBatch is the stub behind the five batch-carrying calls. The request
// — the message's fixed header (batchPrefix) then the batch — is encoded
// into a pooled buffer: Call only borrows the payload for the call's
// duration, so it goes back to the pool after. The batch's trace context
// (if any) rides the traced envelope; CallTraced degrades to a plain Call
// for untraced batches. When the call assigns positions (wantLIds) the
// reply's LIds are stamped onto the caller's records, mirroring the
// in-process behaviour; a batch buffered for later release assigns none.
func (mc *maintainerClient) callBatch(msg uint8, prefix uint64, recs []*core.Record, wantLIds bool) ([]uint64, error) {
	tc := batchTrace(recs)
	req := wire.GetBuf()
	switch batchPrefix(msg) {
	case 8:
		*req = binary.LittleEndian.AppendUint64(*req, prefix)
	case 4:
		*req = binary.LittleEndian.AppendUint32(*req, uint32(prefix))
	}
	*req = core.AppendRecords(*req, recs)
	resp, err := rpc.CallTraced(mc.c, &tc, msg, *req)
	wire.PutBuf(req)
	if err != nil || !wantLIds {
		return nil, mapRemoteError(err)
	}
	lids, _, err := decodeLIds(resp)
	if err != nil || len(lids) == 0 {
		return nil, err
	}
	for i, r := range recs {
		if i < len(lids) {
			r.LId = lids[i]
		}
	}
	return lids, nil
}

// callU64 is the stub behind the calls that answer with one position.
func (mc *maintainerClient) callU64(msg uint8, name string, req []byte) (uint64, error) {
	resp, err := mc.c.Call(msg, req)
	if err != nil {
		return 0, mapRemoteError(err)
	}
	if len(resp) < 8 {
		return 0, fmt.Errorf("flstore: short %s response", name)
	}
	return binary.LittleEndian.Uint64(resp), nil
}

func (mc *maintainerClient) Append(recs []*core.Record) ([]uint64, error) {
	return mc.callBatch(msgAppend, 0, recs, true)
}

func (mc *maintainerClient) AppendAssigned(recs []*core.Record) error {
	_, err := mc.callBatch(msgAppendAssigned, 0, recs, false)
	return err
}

func (mc *maintainerClient) AppendAfter(minLId uint64, recs []*core.Record) ([]uint64, error) {
	return mc.callBatch(msgAppendAfter, minLId, recs, true)
}

func (mc *maintainerClient) Read(lid uint64) (*core.Record, error) {
	resp, err := mc.c.Call(msgRead, binary.LittleEndian.AppendUint64(nil, lid))
	if err != nil {
		return nil, mapRemoteError(err)
	}
	rec, _, err := core.DecodeRecord(resp)
	return rec, err
}

func (mc *maintainerClient) Scan(rule core.Rule) ([]*core.Record, error) {
	resp, err := mc.c.Call(msgScan, appendRule(nil, rule))
	if err != nil {
		return nil, mapRemoteError(err)
	}
	recs, _, err := core.DecodeRecordsShared(resp)
	return recs, err
}

func (mc *maintainerClient) Head() (uint64, error) {
	return mc.callU64(msgHead, "Head", nil)
}

func (mc *maintainerClient) NextUnfilled() (uint64, error) {
	return mc.callU64(msgNextUnfilled, "NextUnfilled", nil)
}

func (mc *maintainerClient) AppendFor(rangeIdx int, recs []*core.Record) ([]uint64, error) {
	return mc.callBatch(msgAppendFor, uint64(rangeIdx), recs, true)
}

func (mc *maintainerClient) ReplicaAppend(recs []*core.Record) error {
	_, err := mc.callBatch(msgReplicaAppend, 0, recs, false)
	return err
}

func (mc *maintainerClient) RangeFrontier(rangeIdx int) (uint64, error) {
	req := wire.GetBuf()
	*req = binary.LittleEndian.AppendUint32(*req, uint32(rangeIdx))
	f, err := mc.callU64(msgRangeFrontier, "RangeFrontier", *req)
	wire.PutBuf(req)
	return f, err
}

func (mc *maintainerClient) PullRange(rangeIdx int, fromLId uint64, limit int) ([]*core.Record, error) {
	req := binary.LittleEndian.AppendUint32(nil, uint32(rangeIdx))
	req = binary.LittleEndian.AppendUint64(req, fromLId)
	req = binary.LittleEndian.AppendUint32(req, uint32(limit))
	resp, err := mc.c.Call(msgPullRange, req)
	if err != nil {
		return nil, mapRemoteError(err)
	}
	recs, _, err := core.DecodeRecordsShared(resp)
	return recs, err
}

func (mc *maintainerClient) ReadRange(q RangeQuery) (RangeResult, error) {
	req := wire.GetBuf()
	*req = binary.LittleEndian.AppendUint64(*req, q.Lo)
	*req = binary.LittleEndian.AppendUint64(*req, q.Hi)
	*req = binary.LittleEndian.AppendUint32(*req, uint32(int32(q.Range)))
	*req = binary.LittleEndian.AppendUint32(*req, uint32(q.MaxRecords))
	*req = binary.LittleEndian.AppendUint32(*req, uint32(q.MaxBytes))
	tc := q.Trace
	resp, err := rpc.CallTraced(mc.c, &tc, msgReadRange, *req)
	wire.PutBuf(req)
	if err != nil {
		return RangeResult{}, mapRemoteError(err)
	}
	return decodeRangeResult(resp)
}

func (mc *maintainerClient) MultiRead(lids []uint64) ([]*core.Record, error) {
	req := wire.GetBuf()
	*req = appendLIds(*req, lids)
	resp, err := mc.c.Call(msgMultiRead, *req)
	wire.PutBuf(req)
	if err != nil {
		return nil, mapRemoteError(err)
	}
	recs, _, err := core.DecodeRecordsShared(resp)
	return recs, err
}

func (mc *maintainerClient) TailWait(rangeIdx int, cursor uint64, maxWait time.Duration) (uint64, error) {
	req := make([]byte, 0, 20)
	req = binary.LittleEndian.AppendUint32(req, uint32(int32(rangeIdx)))
	req = binary.LittleEndian.AppendUint64(req, cursor)
	req = binary.LittleEndian.AppendUint64(req, uint64(int64(maxWait)))
	return mc.callU64(msgTailWait, "TailWait", req)
}

func (mc *maintainerClient) Invalidate(rangeIdx int, upTo uint64) error {
	// The invalidation frame rides ahead of every fan-out payload, so it
	// shares the append hot path's allocation discipline: two fixed words
	// through the pooled-buffer fast path, no response body.
	_, err := rpc.CallU64s(mc.c, msgInvalidate, uint64(rangeIdx), upTo)
	return mapRemoteError(err)
}

func (mc *maintainerClient) ValidityWatermark(rangeIdx int) (uint64, uint64, error) {
	resp, err := rpc.CallU64s(mc.c, msgWatermark, uint64(rangeIdx))
	if err != nil {
		return 0, 0, mapRemoteError(err)
	}
	if len(resp) < 16 {
		return 0, 0, errors.New("flstore: short Watermark response")
	}
	return binary.LittleEndian.Uint64(resp), binary.LittleEndian.Uint64(resp[8:]), nil
}

func (mc *maintainerClient) GossipVecs(next, dur []uint64) ([]uint64, []uint64, error) {
	resp, err := mc.c.Call(msgGossipVecs, appendLIds(appendLIds(nil, next), dur))
	if err != nil {
		return nil, nil, mapRemoteError(err)
	}
	myNext, n, err := decodeLIds(resp)
	if err != nil {
		return nil, nil, err
	}
	myDur, _, err := decodeLIds(resp[n:])
	if err != nil {
		return nil, nil, err
	}
	return myNext, myDur, nil
}

// indexerClient implements IndexerAPI over an rpc.Client.
type indexerClient struct{ c rpc.Client }

// NewIndexerClient wraps an RPC client as an IndexerAPI.
func NewIndexerClient(c rpc.Client) IndexerAPI { return &indexerClient{c: c} }

func (ic *indexerClient) Post(entries []Posting) error {
	_, err := ic.c.Call(msgPost, appendPostings(nil, entries))
	return mapRemoteError(err)
}

func (ic *indexerClient) Lookup(q LookupQuery) ([]uint64, error) {
	resp, err := ic.c.Call(msgLookup, appendLookup(nil, q))
	if err != nil {
		return nil, mapRemoteError(err)
	}
	lids, _, err := decodeLIds(resp)
	return lids, err
}

// controllerClient implements ControllerAPI over an rpc.Client.
type controllerClient struct{ c rpc.Client }

// NewControllerClient wraps an RPC client as a ControllerAPI.
func NewControllerClient(c rpc.Client) ControllerAPI { return &controllerClient{c: c} }

func (cc *controllerClient) GetConfig() (*Config, error) {
	resp, err := cc.c.Call(msgGetConfig, nil)
	if err != nil {
		return nil, mapRemoteError(err)
	}
	return decodeConfig(resp)
}
