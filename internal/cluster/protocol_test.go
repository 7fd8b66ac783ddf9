package cluster

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/chariots"
	"repro/internal/core"
	"repro/internal/flstore"
	"repro/internal/metrics"
	"repro/internal/replica"
	"repro/internal/rpc"
	"repro/internal/storage"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// protocolSnapshot is the committed wire-protocol snapshot, beside the two
// `go doc` API snapshots `make api-check` diffs.
const protocolSnapshot = "../../api/protocol.txt"

// TestProtocolGolden pins every byte the two wire protocols put on the
// network: one sample request and reply per message type, and one error
// frame per error the protocols carry across it. Everything is captured
// through public seams — each stub method driven against a recording
// rpc.Client in front of a LocalClient, each error frame read off a raw TCP
// connection — so this file compiles against any implementation of the
// stubs and handlers, and a change to the bytes is as deliberate as a
// change to the API: `make api-snapshot` regenerates the snapshot.
func TestProtocolGolden(t *testing.T) {
	got := strings.Join(protocolLines(t), "\n") + "\n"
	if os.Getenv("UPDATE_PROTOCOL") != "" {
		if err := os.WriteFile(protocolSnapshot, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(protocolSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	wantLines := strings.Split(string(want), "\n")
	for i, line := range strings.Split(got, "\n") {
		if i >= len(wantLines) || line != wantLines[i] {
			w := "(end of file)"
			if i < len(wantLines) {
				w = wantLines[i]
			}
			t.Fatalf("wire protocol drifted from %s at line %d:\n got %s\nwant %s\nRun 'make api-snapshot' and commit if the change is intended.",
				protocolSnapshot, i+1, line, w)
		}
	}
	t.Fatalf("wire protocol drifted from %s: snapshot has %d lines, protocol %d", protocolSnapshot, len(wantLines), strings.Count(got, "\n"))
}

// tapClient records the last call that crossed it.
type tapClient struct {
	inner     rpc.Client
	typ       uint8
	req, resp []byte
}

func (c *tapClient) Call(msgType uint8, payload []byte) ([]byte, error) {
	c.typ, c.req = msgType, append([]byte(nil), payload...)
	resp, err := c.inner.Call(msgType, payload)
	c.resp = append([]byte(nil), resp...)
	return resp, err
}

func (c *tapClient) Close() error { return nil }

// render prints a payload: "-" when empty, quoted when it is printable
// text (the JSON control plane), hex otherwise — with a printable tail of
// eight bytes or more, an error frame's message, split off and quoted.
func render(p []byte) string {
	if len(p) == 0 {
		return "-"
	}
	text := len(p)
	for text > 0 && p[text-1] >= 0x20 && p[text-1] <= 0x7e {
		text--
	}
	switch {
	case text == 0:
		return fmt.Sprintf("%q", p)
	case len(p)-text >= 8:
		return fmt.Sprintf("%x+%q", p[:text], p[text:])
	}
	return hex.EncodeToString(p)
}

func goldenRecords() []*core.Record {
	return []*core.Record{
		{Host: 1, TOId: 5, Body: []byte("a")},
		{Host: 2, TOId: 6, Tags: []core.Tag{{Key: "k", Value: "v"}}, Deps: []core.Dep{{DC: 1, TOId: 5}}, Body: []byte("body")},
	}
}

func goldenStored() []*core.Record {
	recs := goldenRecords()
	recs[0].LId, recs[1].LId = 9, 10
	return recs
}

// goldenErrors are the errors whose identity the protocols promise to keep
// across the wire (DESIGN.md §8.3), plus one they do not know.
var goldenErrors = []struct {
	name string
	err  error
	// chariots routes the error through the Chariots server instead of
	// FLStore's: each protocol carries its own.
	chariots bool
}{
	{"NoSuchRecord", core.ErrNoSuchRecord, false},
	{"PastHead", fmt.Errorf("%w: LId 40 > head 12", core.ErrPastHead), false},
	{"Overloaded", &flstore.OverloadError{RetryAfter: 3 * time.Millisecond}, false},
	{"OrderBacklog", flstore.ErrOrderBacklog, false},
	{"WrongMaintainer", fmt.Errorf("%w: LId 7", flstore.ErrWrongMaintainer), false},
	{"NotReplica", fmt.Errorf("%w: range 4", flstore.ErrNotReplica), false},
	{"EpochSealed", &flstore.EpochSealedError{FirstLId: 4097}, false},
	{"ReadBlocked", &flstore.ReadBlockedError{LId: 12, RetryAfter: 2 * time.Millisecond}, false},
	{"Duplicate", fmt.Errorf("%w: LId 3", storage.ErrDuplicate), false},
	{"Corrupt", fmt.Errorf("%w: entry at 108", storage.ErrCorrupt), false},
	{"InsufficientAcks", replica.ErrInsufficientAcks, false},
	{"Unencodable", fmt.Errorf("%w: 70000-byte key", core.ErrUnencodable), false},
	{"PipelineSaturated", &chariots.SaturationError{RetryAfter: time.Millisecond}, true},
	{"Stopped", chariots.ErrStopped, true},
	{"unlisted", errors.New("disk on fire"), false},
}

// goldenErrorBase is the first LId at which goldenMaintainer.Read fails
// with goldenErrors[lid-goldenErrorBase].
const goldenErrorBase = 1000

// goldenMaintainer answers every MaintainerAPI call with a fixed value.
type goldenMaintainer struct{}

// The two appends' LIds carry the frontier vector past their length.
func (goldenMaintainer) Append([]*core.Record) ([]uint64, error) {
	return []uint64{9, 10, 11, 17, 25}[:2], nil
}
func (goldenMaintainer) AppendAssigned([]*core.Record) error { return nil }
func (goldenMaintainer) AppendAfter(uint64, []*core.Record) ([]uint64, error) {
	return []uint64{9, 10}, nil
}
func (goldenMaintainer) Read(lid uint64) (*core.Record, error) {
	if lid >= goldenErrorBase {
		return nil, goldenErrors[lid-goldenErrorBase].err
	}
	return goldenStored()[1], nil
}
func (goldenMaintainer) Head() (uint64, error)         { return 10, nil }
func (goldenMaintainer) NextUnfilled() (uint64, error) { return 11, nil }
func (goldenMaintainer) GossipVecs(next, dur []uint64) ([]uint64, []uint64, error) {
	return []uint64{11, 17, 25}, []uint64{9, 17, 0}, nil
}
func (goldenMaintainer) AppendFor(int, []*core.Record) ([]uint64, error) {
	return []uint64{17, 18, 11, 19, 25}[:2], nil
}
func (goldenMaintainer) ReplicaAppend([]*core.Record) error { return nil }
func (goldenMaintainer) RangeFrontier(int) (uint64, error)  { return 19, nil }
func (goldenMaintainer) PullRange(int, uint64, int) ([]*core.Record, error) {
	return goldenStored(), nil
}
func (goldenMaintainer) Invalidate(int, uint64) error { return nil }
func (goldenMaintainer) ValidityWatermark(int) (uint64, uint64, error) {
	return 19, 27, nil
}
func (goldenMaintainer) ReadRange(flstore.RangeQuery) (flstore.RangeResult, error) {
	return flstore.RangeResult{Records: goldenStored(), CoveredHi: 10}, nil
}
func (goldenMaintainer) MultiRead([]uint64) ([]*core.Record, error) { return goldenStored(), nil }
func (goldenMaintainer) TailWait(int, uint64, time.Duration) (uint64, error) {
	return 19, nil
}

type goldenIndexer struct{}

func (goldenIndexer) Post([]flstore.Posting) error                 { return nil }
func (goldenIndexer) Lookup(flstore.LookupQuery) ([]uint64, error) { return []uint64{3, 9}, nil }

var goldenConfig = &flstore.Config{
	Placement:       flstore.Placement{NumMaintainers: 2, BatchSize: 4},
	MaintainerAddrs: []string{"m0:1", "m1:1"},
	IndexerAddrs:    []string{"ix:1"},
	Epochs: []flstore.Epoch{
		{FirstLId: 1, Placement: flstore.Placement{NumMaintainers: 1, BatchSize: 4}, MaintainerAddrs: []string{"old:1"}},
		{FirstLId: 9, Placement: flstore.Placement{NumMaintainers: 2, BatchSize: 4}},
	},
	Replication: 3,
	AckPolicy:   "majority",
}

type goldenController struct{}

func (goldenController) GetConfig() (*flstore.Config, error) { return goldenConfig, nil }

var goldenEpoch = flstore.EpochStatus{
	Epoch: 1, FirstLId: 9, NumMaintainers: 2, BatchSize: 4, MaintainerAddrs: []string{"m0:1", "m1:1"},
	RangesTotal: 1, RangesStreamed: 1, RecordsStreamed: 8, MigrationDone: true,
}

type goldenAdmin struct{}

func (goldenAdmin) Epochs() ([]flstore.EpochStatus, error) {
	return []flstore.EpochStatus{goldenEpoch}, nil
}
func (goldenAdmin) ProposeEpoch(flstore.EpochProposal) (flstore.EpochStatus, error) {
	return goldenEpoch, nil
}

// goldenReceiver accepts every snapshot except those "from" a datacenter at
// or above goldenErrorBase, which fail like goldenMaintainer.Read does.
type goldenReceiver struct{}

func (goldenReceiver) Deliver(snap chariots.Snapshot) error {
	if snap.From >= goldenErrorBase {
		return goldenErrors[snap.From-goldenErrorBase].err
	}
	return nil
}

// protocolLines drives every stub once and provokes every error once, and
// renders what crossed the wire.
func protocolLines(t *testing.T) []string {
	t.Helper()
	lines := []string{
		"# The wire protocol: `<protocol> <type> <name> <serving class> <request> -> <reply>` for one",
		"# sample call per message type, then `error <name> <frame type> <payload>` for one error",
		"# frame per error whose identity crosses the wire. Payloads are hex, quoted when they are",
		"# printable text (hex+\"text\" when they end in eight or more bytes of it), - when empty.",
		"# TestProtocolGolden (internal/cluster) fails on any drift; regenerate deliberately with",
		"# `make api-snapshot`.",
	}

	// --- FLStore ---
	flSrv := rpc.NewServer()
	defer flSrv.Close()
	reg := metrics.NewRegistry()
	reg.Counter("golden_total", metrics.L("k", "v")).Add(7)
	flstore.ServeMaintainer(flSrv, goldenMaintainer{})
	flstore.ServeIndexer(flSrv, goldenIndexer{})
	flstore.ServeController(flSrv, goldenController{})
	flstore.ServeStats(flSrv, reg)
	flstore.ServeReplicas(flSrv, func() (*replica.ClusterStatus, error) {
		return &replica.ClusterStatus{Replication: 3, Ack: "majority", Groups: []replica.GroupStatus{{Range: 0}}}, nil
	})
	flstore.ServeAdmin(flSrv, goldenAdmin{})
	flTap := &tapClient{inner: rpc.NewLocalClient(flSrv)}
	mc := flstore.NewMaintainerClient(flTap)
	ix := flstore.NewIndexerClient(flTap)
	admin := flstore.NewAdmin(flTap)
	ctx := context.Background()
	var readType uint8
	for _, s := range []struct {
		name, class string
		call        func() error
	}{
		{"Append", "in-order", func() error { _, err := mc.Append(goldenRecords()); return err }},
		{"AppendAssigned", "in-order", func() error { return mc.AppendAssigned(goldenStored()) }},
		{"AppendAfter", "in-order", func() error { _, err := mc.AppendAfter(8, goldenRecords()); return err }},
		{"Read", "in-order", func() error { _, err := mc.Read(10); return err }},
		{"Head", "in-order", func() error { _, err := mc.Head(); return err }},
		{"NextUnfilled", "in-order", func() error { _, err := mc.NextUnfilled(); return err }},
		{"Post", "in-order", func() error {
			return ix.Post([]flstore.Posting{{Key: "k", Value: "v", LId: 7}, {Key: "", Value: "", LId: 8}})
		}},
		{"Lookup", "in-order", func() error {
			_, err := ix.Lookup(flstore.LookupQuery{Key: "k", Cmp: core.CmpEQ, Value: "v", MaxLIdExclusive: 9, Limit: 2, MostRecent: true})
			return err
		}},
		{"GetConfig", "in-order", func() error { _, err := flstore.NewControllerClient(flTap).GetConfig(); return err }},
		{"Stats", "in-order", func() error { _, err := admin.Stats(ctx); return err }},
		{"AppendFor", "in-order", func() error { _, err := mc.AppendFor(2, goldenRecords()); return err }},
		{"ReplicaAppend", "in-order", func() error { return mc.ReplicaAppend(goldenStored()) }},
		{"RangeFrontier", "in-order", func() error { _, err := mc.RangeFrontier(2); return err }},
		{"PullRange", "in-order", func() error { _, err := mc.PullRange(2, 17, 64); return err }},
		{"Replicas", "in-order", func() error { _, err := admin.Replicas(ctx); return err }},
		{"ReadRange", "in-order", func() error {
			_, err := mc.ReadRange(flstore.RangeQuery{Lo: 2, Hi: 10, Range: -1, MaxRecords: 64, MaxBytes: 4096})
			return err
		}},
		{"MultiRead", "in-order", func() error { _, err := mc.MultiRead([]uint64{10, 9}); return err }},
		{"TailWait", "detached", func() error { _, err := mc.TailWait(2, 18, 50*time.Millisecond); return err }},
		{"Invalidate", "in-order", func() error { return mc.Invalidate(2, 27) }},
		{"Watermark", "in-order", func() error { _, _, err := mc.ValidityWatermark(2); return err }},
		{"GossipVecs", "in-order", func() error {
			_, _, err := mc.GossipVecs([]uint64{9, 17, 25}, []uint64{9, 0, 0})
			return err
		}},
		{"AdminEpochs", "in-order", func() error { _, err := admin.Epochs(ctx); return err }},
		{"AdminPropose", "in-order", func() error {
			_, err := admin.ProposeEpoch(ctx, flstore.EpochProposal{NumMaintainers: 2, MaintainerAddrs: []string{"m0:1", "m1:1"}})
			return err
		}},
	} {
		if err := s.call(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if s.name == "Read" {
			readType = flTap.typ
		}
		lines = append(lines, fmt.Sprintf("flstore %02x %s %s %s -> %s", flTap.typ, s.name, s.class, render(flTap.req), render(flTap.resp)))
	}

	// --- Chariots ---
	dc, err := chariots.New(chariots.Config{Self: 0, NumDCs: 2, Maintainers: 1})
	if err != nil {
		t.Fatal(err)
	}
	dc.Start()
	defer dc.Stop()
	chSrv := rpc.NewServer()
	defer chSrv.Close()
	chariots.ServeReceiver(chSrv, goldenReceiver{})
	chariots.ServeIngest(chSrv, dc)
	chTap := &tapClient{inner: rpc.NewLocalClient(chSrv)}
	ingest := chariots.NewIngestClient(chTap)
	snap := chariots.Snapshot{From: 1, Records: goldenRecords(), ATable: []vclock.Vector{{1, 2}, {3, 4}}}
	var replicateType uint8
	for _, s := range []struct {
		name string
		call func() error
	}{
		{"Replicate", func() error { return chariots.NewReceiverClient(chTap).Deliver(snap) }},
		// Applied before Ingest: the vector is still all zero.
		{"Applied", func() error { _, err := ingest.Applied(); return err }},
		{"Ingest", func() error { return ingest.Append([]*core.Record{{Body: []byte("a")}}) }},
	} {
		if err := s.call(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if s.name == "Replicate" {
			replicateType = chTap.typ
		}
		lines = append(lines, fmt.Sprintf("chariots %02x %s in-order %s -> %s", chTap.typ, s.name, render(chTap.req), render(chTap.resp)))
	}

	// --- error frames, off the socket ---
	flConn, chConn := dialRaw(t, flSrv), dialRaw(t, chSrv)
	for i, e := range goldenErrors {
		var f wire.Frame
		if e.chariots {
			chariots.NewReceiverClient(chTap).Deliver(chariots.Snapshot{From: core.DCID(goldenErrorBase + i)})
			f = exchange(t, chConn, replicateType, chTap.req)
		} else {
			mc.Read(uint64(goldenErrorBase + i))
			f = exchange(t, flConn, readType, flTap.req)
		}
		lines = append(lines, fmt.Sprintf("error %s %02x %s", e.name, f.Type, render(f.Payload)))
	}
	return lines
}

func dialRaw(t *testing.T, srv *rpc.Server) net.Conn {
	t.Helper()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// exchange writes one request frame and reads the response frame.
func exchange(t *testing.T, conn net.Conn, msgType uint8, payload []byte) wire.Frame {
	t.Helper()
	if err := wire.Write(conn, 1, msgType, payload); err != nil {
		t.Fatal(err)
	}
	f, err := wire.Read(conn)
	if err != nil {
		t.Fatal(err)
	}
	return f
}
