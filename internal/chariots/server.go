package chariots

import (
	"encoding/binary"
	"fmt"

	"repro/internal/core"
	"repro/internal/rpc"
	"repro/internal/trace"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// Message types of the Chariots wire protocol (cross-datacenter shipping
// and client ingestion). FLStore's types occupy 1..24; these start higher
// so one server can host both if a deployment co-locates them.
const (
	msgReplicate uint8 = iota + 32
	msgIngest
	msgApplied
)

func appendSnapshot(dst []byte, snap Snapshot) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(snap.From))
	dst = core.AppendRecords(dst, snap.Records)
	dst = wire.AppendBool(dst, snap.ATable != nil)
	if snap.ATable != nil {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(snap.ATable)))
		for _, row := range snap.ATable {
			dst = row.AppendBinary(dst)
		}
	}
	return dst
}

func decodeSnapshot(buf []byte) (Snapshot, error) {
	d := wire.NewDec(buf)
	// Arena-decoded records belong to this snapshot alone: the receiver
	// may adopt them without another clone.
	snap := Snapshot{From: core.DCID(d.U16()), Owned: true}
	recs, used, err := core.DecodeRecordsShared(d.Rest())
	if err != nil {
		return snap, err
	}
	snap.Records = recs
	d.Skip(used)
	if d.Bool() {
		snap.ATable = make([]vclock.Vector, d.Count16(2))
		for i := range snap.ATable {
			v, used, err := vclock.DecodeVector(d.Rest())
			if err != nil {
				return snap, err
			}
			snap.ATable[i] = v
			d.Skip(used)
		}
	}
	return snap, d.Err()
}

// The protocol table (DESIGN.md §3.8): each message is one row, its stub
// the row's Call and its handler the row's Serve.
var (
	rowReplicate = rpc.Message[Snapshot, rpc.None]{Type: msgReplicate, Name: "Replicate", Reply: rpc.Empty,
		Req: rpc.Codec[Snapshot]{
			Put: func(dst []byte, snap Snapshot) ([]byte, error) { return appendSnapshot(dst, snap), nil },
			Get: func(p []byte, _ *trace.Ctx) (Snapshot, error) { return decodeSnapshot(p) },
		}}
	rowIngest = rpc.Message[[]*core.Record, rpc.None]{Type: msgIngest, Name: "Ingest", Reply: rpc.Empty,
		Req: rpc.Codec[[]*core.Record]{
			Put: func(dst []byte, recs []*core.Record) ([]byte, error) {
				// Refused on the sending side: the encoder would truncate it.
				if err := core.CheckEncodable(recs); err != nil {
					return dst, err
				}
				return core.AppendRecords(dst, recs), nil
			},
			Get: func(p []byte, _ *trace.Ctx) ([]*core.Record, error) {
				recs, _, err := core.DecodeRecordsShared(p)
				return recs, err
			},
		}}
	rowApplied = rpc.Message[rpc.None, vclock.Vector]{Type: msgApplied, Name: "Applied", Req: rpc.Empty,
		Reply: rpc.Codec[vclock.Vector]{
			Put: func(dst []byte, v vclock.Vector) ([]byte, error) { return v.AppendBinary(dst), nil },
			Get: func(p []byte, _ *trace.Ctx) (vclock.Vector, error) {
				v, _, err := vclock.DecodeVector(p)
				return v, err
			},
		}}
)

// ServeReceiver registers the cross-datacenter replication handler on srv,
// delivering decoded snapshots to rx. One RPC server typically fronts one
// receiver machine.
func ServeReceiver(srv *rpc.Server, rx ReceiverAPI) {
	rowReplicate.Serve(srv, rpc.NoReply(rx.Deliver))
}

// receiverClient implements ReceiverAPI over an rpc.Client — the transport
// a sender uses toward a remote datacenter's receiver machine.
type receiverClient struct{ c rpc.Client }

// NewReceiverClient wraps an RPC client as a ReceiverAPI.
func NewReceiverClient(c rpc.Client) ReceiverAPI { return &receiverClient{c: c} }

func (rc *receiverClient) Deliver(snap Snapshot) error {
	_, err := rowReplicate.Call(rc.c, snap)
	return err
}

// ServeIngest registers the application-client ingestion handler on srv:
// remote clients append batches of fresh records (no TOId/LId) which are
// injected into the pipeline. The response carries no ids — over-the-wire
// appends are fire-and-forget into the pipeline (§6.2's Application
// clients "send it to any Batcher machine"); clients needing ids use the
// in-process API or poll msgApplied. Under Config.ShedOnSaturation a
// saturated pipeline rejects the batch with a SaturationError, which the
// error table (errors.go) carries to the remote caller as itself.
func ServeIngest(srv *rpc.Server, dc *Datacenter) {
	rowIngest.Serve(srv, rpc.NoReply(func(recs []*core.Record) error {
		for _, r := range recs {
			if r.TOId != 0 || r.LId != 0 {
				return fmt.Errorf("chariots: ingest record carries ids (TOId=%d LId=%d)", r.TOId, r.LId)
			}
			r.Host = dc.Self()
		}
		return dc.inject(recs, dc.cfg.ShedOnSaturation)
	}))
	rowApplied.Serve(srv, rpc.NoArg(func() (vclock.Vector, error) { return dc.Applied(), nil }))
}

// IngestClient is the remote application-client handle: it appends records
// to a datacenter over TCP.
type IngestClient struct{ c rpc.Client }

// NewIngestClient wraps an RPC client as an ingestion handle.
func NewIngestClient(c rpc.Client) *IngestClient { return &IngestClient{c: c} }

// Append ships fresh records into the remote pipeline. A saturated remote
// under the shed policy returns a *SaturationError (retryable, with the
// server's retry hint).
func (ic *IngestClient) Append(recs []*core.Record) error {
	_, err := rowIngest.Call(ic.c, recs)
	return err
}

// Applied returns the remote datacenter's applied-TOId vector (polling
// surface for clients that need to confirm their appends landed).
func (ic *IngestClient) Applied() (vclock.Vector, error) {
	return rowApplied.Call(ic.c, rpc.None{})
}

// Resync re-ships this datacenter's local records that, per the awareness
// table, the remote datacenter has not acknowledged — the recovery path
// after a receiver failure, dropped link, or filter-reorder overflow. It
// reads the log by position up to the head (senders normally consume the
// live feed; this is the slow path) and sends one snapshot through the
// given sender. A record past the head is still in the live feed, and the
// callers resync again once it is readable.
func (dc *Datacenter) Resync(remote core.DCID, s *Sender) (int, error) {
	return dc.resyncFrom(dc.state.atable.Get(remote, dc.cfg.Self)+1, remote, s)
}

// ResyncAll ships every local record to the remote datacenter regardless
// of the awareness table — the bootstrap path for a *replacement*
// datacenter that lost its entire state: the peers' tables still remember
// what the dead instance knew, so the incremental Resync would skip
// records the new instance never had. The remote's filters discard
// whatever it does turn out to have (exactly-once), so over-shipping is
// safe, just expensive.
func (dc *Datacenter) ResyncAll(remote core.DCID, s *Sender) (int, error) {
	return dc.resyncFrom(0, remote, s)
}

// resyncFrom ships the local records whose TOId is at least minTOId, in
// TOId order so the remote filter sees its expected sequence: the log holds
// each host's records in TOId order (CheckCausalInvariant), so LId order is
// that order already.
func (dc *Datacenter) resyncFrom(minTOId uint64, remote core.DCID, s *Sender) (int, error) {
	log, err := dc.LogRecords()
	if err != nil {
		return 0, err
	}
	var copies []*core.Record
	for _, r := range log {
		if r.Host == dc.cfg.Self && r.TOId >= minTOId {
			copies = append(copies, r.Clone())
		}
	}
	if len(copies) == 0 {
		return 0, nil
	}
	snap := Snapshot{From: dc.cfg.Self, Records: copies, ATable: dc.state.atable.Snapshot(), Owned: true}
	s.mu.Lock()
	rxs := s.dests[remote]
	s.mu.Unlock()
	if len(rxs) == 0 {
		return 0, fmt.Errorf("chariots: no receivers connected for %s", remote)
	}
	if err := rxs[0].Deliver(snap); err != nil {
		return 0, err
	}
	return len(copies), nil
}
