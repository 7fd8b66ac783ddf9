package flstore

import (
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// MaintainerAPI is the whole operation surface of one log maintainer: the
// log operations declared here plus the replication, invalidation and
// batched-read method groups it embeds. Components program against this
// interface; it is implemented both by *Maintainer (in-process) and by
// maintainerClient (over RPC), so deployments can mix direct, loopback-TCP,
// and cross-machine wiring without code changes. Every MaintainerAPI is a
// replica.Member.
type MaintainerAPI interface {
	ReplicaAPI
	InvalidationAPI
	RangeReadAPI

	// Append post-assigns LIds to records that carry none (§5.2), stores
	// them, and returns the LIds in order, nextVec past their length.
	Append(recs []*core.Record) ([]uint64, error)

	// AppendAssigned stores records that already carry LIds owned by
	// this maintainer — the path used by Chariots' queues, which assign
	// LIds centrally-by-token before forwarding (§6.2).
	AppendAssigned(recs []*core.Record) error

	// AppendAfter appends records with the constraint that their LIds
	// exceed minLId — the cross-maintainer explicit-order mechanism of
	// §5.4. The records are buffered until the constraint is satisfiable.
	AppendAfter(minLId uint64, recs []*core.Record) ([]uint64, error)

	// Read returns the record at lid. It fails with core.ErrNoSuchRecord
	// for unknown positions and core.ErrPastHead for positions beyond
	// the head of the log unless the maintainer is configured otherwise.
	Read(lid uint64) (*core.Record, error)

	// Head returns this maintainer's current estimate of the head of
	// the log (HL): every position ≤ Head is readable somewhere.
	Head() (uint64, error)

	// NextUnfilled returns the next LId this maintainer will fill.
	NextUnfilled() (uint64, error)

	// GossipVecs is the gossip exchange (§5.4): it delivers a peer's
	// next-unfilled vector together with its durable-watermark vector
	// (highest LId per range known quorum-fsynced) and returns this
	// maintainer's own, so gossip doubles as exchange. Both merge
	// element-wise max; the durable vector is advisory and never gates
	// appends.
	GossipVecs(next, dur []uint64) ([]uint64, []uint64, error)
}

// ReplicaAPI groups the methods a replica group's members call on each
// other and the replica session calls on them: acting-primary appends,
// follower copies, per-range frontiers and the catch-up feed. Together with
// MaintainerAPI's Append and Read it is replica.Member.
type ReplicaAPI interface {
	// AppendFor post-assigns positions in a hosted range other than the
	// maintainer's own — the acting-primary failover path; replies as Append.
	AppendFor(rangeIdx int, recs []*core.Record) ([]uint64, error)
	// ReplicaAppend ingests copies of records already positioned by the
	// range's acting primary. Idempotent per LId.
	ReplicaAppend(recs []*core.Record) error
	// RangeFrontier returns the locally known next-unfilled LId of a
	// hosted range.
	RangeFrontier(rangeIdx int) (uint64, error)
	// PullRange streams stored records of a hosted range for catch-up.
	PullRange(rangeIdx int, fromLId uint64, limit int) ([]*core.Record, error)
}

// InvalidationAPI groups the Hermes-style invalidation methods: the
// standalone announcement (live fan-out needs none, since every replica
// copy announces itself; catch-up replays one) and the watermark a follower
// reports back. It is what replica.Invalidator and replica.WatermarkReporter
// ask of a member.
type InvalidationAPI interface {
	// Invalidate announces that every position of rangeIdx strictly below
	// upTo has been assigned by the range's acting primary; positions
	// between the local frontier and the bound become locally invalid
	// (reads block or fail over instead of reporting them absent).
	// Idempotent and monotone.
	Invalidate(rangeIdx int, upTo uint64) error
	// ValidityWatermark returns a hosted range's validity watermark (the
	// stored frontier LId: reads below it are served locally) and
	// its announced assignment bound; the span between them is the
	// invalidation backlog.
	ValidityWatermark(rangeIdx int) (watermark, announced uint64, err error)
}

// RangeQuery asks a maintainer for its hosted records in an LId interval.
type RangeQuery struct {
	// Lo and Hi bound the interval, inclusive. Lo 0 is treated as 1.
	Lo, Hi uint64
	// Range restricts the response to one hosted range (a maintainer
	// index); negative serves every hosted range. The scatter-gather
	// client pins it so replica followers don't re-ship blocks their
	// group peers already serve.
	Range int
	// MaxRecords/MaxBytes bound the response batch; 0 applies the
	// server's defaults. The server may truncate below either bound.
	MaxRecords int
	MaxBytes   int
	// Trace is the read's trace context — transient, not serialized by
	// the wire codec (cross-process propagation rides the RPC envelope;
	// the server-side handler restamps it); the zero Ctx for unsampled
	// reads.
	Trace trace.Ctx
}

// RangeResult is one maintainer's answer to a RangeQuery.
type RangeResult struct {
	// Records are the hosted records in [Lo, CoveredHi], ascending.
	Records []*core.Record
	// CoveredHi states how far the response got: every queried position
	// at or below it that this maintainer hosts is present in Records.
	// CoveredHi < Hi means the response was cut short — by the
	// count/byte budget or by the hosted range's local frontier — and
	// the client resumes from CoveredHi+1.
	CoveredHi uint64
}

// RangeReadAPI groups the batched read methods the client's scatter-gather
// reads and tail subscriptions are built on: one RPC per owning range for
// an LId interval or an LId set, and the frontier long-poll.
type RangeReadAPI interface {
	// ReadRange returns every hosted record in [q.Lo, q.Hi] as one batch,
	// ascending, within the query's budgets.
	ReadRange(q RangeQuery) (RangeResult, error)
	// MultiRead returns the hosted records at the given LIds in input
	// order; positions not yet stored here are absent from the result.
	MultiRead(lids []uint64) ([]*core.Record, error)
	// TailWait parks until hosted range rangeIdx's local frontier (its
	// next-unfilled LId) passes cursor or maxWait elapses (0 = server
	// default), returning the current frontier either way — the push half
	// of tail subscriptions. The head of the log advances exactly when
	// the laggard range's frontier does, so a tailing client parks at
	// that range's group instead of polling.
	TailWait(rangeIdx int, cursor uint64, maxWait time.Duration) (uint64, error)
}

// Posting is one index entry streamed from a maintainer to an indexer:
// the record at LId carries tag Key with value Value.
type Posting struct {
	Key   string
	Value string
	LId   uint64
}

// LookupQuery asks an indexer for the LIds of records carrying a tag.
type LookupQuery struct {
	Key   string
	Cmp   core.CmpOp // CmpAny = no value constraint
	Value string

	// MaxLIdExclusive restricts results to LIds < bound (0 = unbounded);
	// get-transactions pass the pinned head here (Algorithm 1).
	MaxLIdExclusive uint64
	// Limit caps results; MostRecent returns the highest LIds first.
	Limit      int
	MostRecent bool
}

// IndexerAPI is the operation surface of one distributed indexer (§5.3).
type IndexerAPI interface {
	Post(entries []Posting) error
	Lookup(q LookupQuery) ([]uint64, error)
}

// ControllerAPI is the stateless control/meta-data oracle (§5.1): clients
// call it once at session start (and after communication problems) to learn
// the cluster layout.
type ControllerAPI interface {
	GetConfig() (*Config, error)
}

// Config describes one FLStore deployment as served by the controller.
type Config struct {
	Placement Placement
	// MaintainerAddrs are "host:port" endpoints, index-aligned with
	// Placement ownership. Empty strings denote in-process wiring.
	MaintainerAddrs []string
	IndexerAddrs    []string
	// Epochs is the journal of placement changes for live elasticity
	// (§6.3); readers use it to locate records written under old
	// placements.
	Epochs []Epoch
	// Replication is the deployment's replica-group size R (0 and 1 both
	// mean unreplicated); clients derive group membership from it and the
	// placement alone.
	Replication int
	// AckPolicy is the append durability policy ("one", "majority",
	// "all"); empty means "majority".
	AckPolicy string
}

// Epoch is one entry of the elasticity journal: from FirstLId onward, the
// log is laid out under the given placement. Earlier positions use the
// preceding epoch's placement.
type Epoch struct {
	FirstLId  uint64
	Placement Placement
	// MaintainerAddrs are the epoch's own maintainer endpoints,
	// index-aligned with its placement — the epoch-carried topology that
	// replaces the mutable top-level address list for elastic deployments.
	// Empty means the epoch inherits Config.MaintainerAddrs (static
	// deployments that never switch epochs).
	MaintainerAddrs []string
}
