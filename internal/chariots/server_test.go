package chariots

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rpc"
	"repro/internal/vclock"
)

func TestSnapshotCodecRoundTrip(t *testing.T) {
	snap := Snapshot{
		From: 2,
		Records: []*core.Record{
			{Host: 2, TOId: 1, Body: []byte("r1")},
			{Host: 2, TOId: 2, Deps: []core.Dep{{DC: 0, TOId: 4}}, Tags: []core.Tag{{Key: "k", Value: "v"}}},
		},
		ATable: []vclock.Vector{{1, 2}, {3, 4}},
	}
	got, err := decodeSnapshot(appendSnapshot(nil, snap))
	if err != nil {
		t.Fatal(err)
	}
	want := snap
	want.Owned = true // decoded records are arena-backed, owned by the snapshot
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestSnapshotCodecNoTable(t *testing.T) {
	snap := Snapshot{From: 1, Records: []*core.Record{{Host: 1, TOId: 1}}}
	got, err := decodeSnapshot(appendSnapshot(nil, snap))
	if err != nil {
		t.Fatal(err)
	}
	if got.ATable != nil || got.From != 1 || len(got.Records) != 1 {
		t.Errorf("got %+v", got)
	}
}

func TestSnapshotCodecTruncated(t *testing.T) {
	buf := appendSnapshot(nil, Snapshot{From: 1, ATable: []vclock.Vector{{1}}})
	for n := 0; n < len(buf); n++ {
		if _, err := decodeSnapshot(buf[:n]); err == nil {
			t.Fatalf("accepted truncation to %d bytes", n)
		}
	}
}

// TestReplicationOverTCP runs two datacenters connected only through real
// TCP receiver endpoints.
func TestReplicationOverTCP(t *testing.T) {
	a := startDC(t, fastCfg(0, 2))
	b := startDC(t, fastCfg(1, 2))

	dialReceivers := func(dc *Datacenter) []ReceiverAPI {
		var out []ReceiverAPI
		for _, rx := range dc.Receivers() {
			srv := rpc.NewServer()
			ServeReceiver(srv, rx)
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			conn, err := rpc.Dial(addr.String())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { conn.Close() })
			out = append(out, NewReceiverClient(conn))
		}
		return out
	}
	a.ConnectTo(1, dialReceivers(b))
	b.ConnectTo(0, dialReceivers(a))

	const n = 150
	for i := 0; i < n; i++ {
		a.AppendAsync([]byte(fmt.Sprintf("a%d", i)), nil)
		b.AppendAsync([]byte(fmt.Sprintf("b%d", i)), nil)
	}
	deadline := time.Now().Add(15 * time.Second)
	for a.AppliedCount() < 2*n || b.AppliedCount() < 2*n {
		if time.Now().After(deadline) {
			t.Fatalf("TCP replication stalled: a=%d b=%d", a.AppliedCount(), b.AppliedCount())
		}
		time.Sleep(5 * time.Millisecond)
	}
	recs, _ := a.LogRecords()
	if err := CheckCausalInvariant(recs); err != nil {
		t.Error(err)
	}
}

// TestIngestOverTCP drives a datacenter through the remote application-
// client endpoint.
func TestIngestOverTCP(t *testing.T) {
	dc := startDC(t, fastCfg(0, 1))
	srv := rpc.NewServer()
	ServeIngest(srv, dc)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	conn, err := rpc.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	client := NewIngestClient(conn)

	var batch []*core.Record
	for i := 0; i < 50; i++ {
		batch = append(batch, &core.Record{Body: []byte(fmt.Sprintf("remote-%d", i))})
	}
	if err := client.Append(batch); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		v, err := client.Applied()
		if err != nil {
			t.Fatal(err)
		}
		if v.Get(0) >= 50 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ingested records never applied: %v", v)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Records with pre-set ids must be rejected.
	err = client.Append([]*core.Record{{TOId: 7, Body: []byte("bad")}})
	if err == nil {
		t.Error("ingest accepted a record with a TOId")
	}
}

// TestResyncAfterDroppedLink simulates a receiver outage: records shipped
// while the link is down are lost, then Resync recovers them.
func TestResyncAfterDroppedLink(t *testing.T) {
	a := startDC(t, fastCfg(0, 2))
	b := startDC(t, fastCfg(1, 2))
	// A→B link drops everything initially (a blackhole receiver).
	black := &blackhole{}
	a.ConnectTo(1, []ReceiverAPI{black})
	b.ConnectTo(0, a.Receivers())

	const n = 40
	for i := 0; i < n; i++ {
		if _, err := a.Append([]byte(fmt.Sprintf("a%d", i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(20 * time.Millisecond)
	if got := b.Applied().Get(0); got != 0 {
		t.Fatalf("B applied %d records through a blackhole", got)
	}
	// Heal: reconnect and resync through sender 0.
	a.ConnectTo(1, b.Receivers())
	sent, err := a.Resync(1, a.senders[0])
	if err != nil {
		t.Fatal(err)
	}
	if sent != n {
		t.Errorf("Resync shipped %d records, want %d", sent, n)
	}
	if !b.WaitForTOId(0, n, 10*time.Second) {
		t.Fatal("B never caught up after resync")
	}
	b.Quiesce(30*time.Millisecond, 5*time.Second)
	recs, _ := b.LogRecords()
	if err := CheckCausalInvariant(recs); err != nil {
		t.Error(err)
	}
	if len(recs) != n {
		t.Errorf("B has %d records, want %d", len(recs), n)
	}
}

type blackhole struct{}

func (*blackhole) Deliver(Snapshot) error { return nil }

// capture keeps every snapshot delivered to it.
type capture struct {
	mu    sync.Mutex
	snaps []Snapshot
}

func (c *capture) Deliver(s Snapshot) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.snaps = append(c.snaps, s)
	return nil
}

// TestResyncShipsExactlyTheOracleRecords runs three datacenters on a seeded
// schedule, collects part of A's log, then blackholes A's link to C for a
// second seeded phase. Resync and ResyncAll must then ship exactly what an
// oracle computes from LogRecords — A's own records from the awareness
// table's bound for C (Resync) or from the collected bound (ResyncAll) —
// in TOId order.
func TestResyncShipsExactlyTheOracleRecords(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	dcs := []*Datacenter{startDC(t, fastCfg(0, 3)), startDC(t, fastCfg(1, 3)), startDC(t, fastCfg(2, 3))}
	for _, from := range dcs {
		for _, to := range dcs {
			if from != to {
				from.ConnectTo(to.Self(), to.Receivers())
			}
		}
	}
	a := dcs[0]
	var count [3]uint64
	for i := 0; i < 60; i++ {
		h := rng.Intn(3)
		dcs[h].AppendAsync([]byte(fmt.Sprintf("p1-%d-%d", h, i)), nil)
		count[h]++
	}
	// Wait until A knows that every datacenter holds every record, so the
	// collection below has a safe prefix to take.
	deadline := time.Now().Add(10 * time.Second)
	for known := false; !known; {
		known = true
		for row := range dcs {
			for h := range dcs {
				known = known && a.ATable().Get(core.DCID(row), core.DCID(h)) >= count[h]
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("awareness never settled: %v", a.ATable().Snapshot())
		}
		time.Sleep(time.Millisecond)
	}
	head, _ := a.Head()
	_, bound, err := a.CollectGarbage(head/2 + 1)
	if err != nil || bound == 0 || bound > head/2 {
		t.Fatalf("CollectGarbage = bound %d, %v; want 1..%d", bound, err, head/2)
	}

	a.ConnectTo(2, []ReceiverAPI{&blackhole{}})
	var last AppendAck
	for i := 0; i < 20+rng.Intn(20); i++ {
		if last, err = a.Append([]byte(fmt.Sprintf("p2-%d", i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	a.Quiesce(30*time.Millisecond, 5*time.Second)
	// The oracle and both resyncs must read the same window: wait until
	// every applied record is below the readable head.
	if h, err := a.Reader().WaitHead(last.LId, 5*time.Second); err != nil || h < last.LId {
		t.Fatalf("head %d, %v; want it to reach LId %d", h, err, last.LId)
	}

	log, err := a.LogRecords()
	if err != nil || len(log) == 0 || log[0].LId != bound+1 {
		t.Fatalf("LogRecords = %d records, %v; want them to start at LId %d", len(log), err, bound+1)
	}
	oracle := func(minTOId uint64) []*core.Record {
		var want []*core.Record
		for _, r := range log {
			if r.Host == a.Self() && r.TOId >= minTOId {
				want = append(want, r)
			}
		}
		return want
	}
	rx := &capture{}
	probe := NewSender("probe", nil, a.state, 16)
	probe.Connect(2, []ReceiverAPI{rx})
	for _, tc := range []struct {
		name   string
		min    uint64
		resync func(core.DCID, *Sender) (int, error)
	}{
		{"Resync", a.ATable().Get(2, a.Self()) + 1, a.Resync},
		{"ResyncAll", 0, a.ResyncAll},
	} {
		want := oracle(tc.min)
		sent, err := tc.resync(2, probe)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.min > 0 && a.ATable().Get(2, a.Self())+1 != tc.min {
			t.Fatalf("%s: the awareness bound moved during the test", tc.name)
		}
		got := rx.snaps[len(rx.snaps)-1].Records
		if sent != len(want) || len(got) != len(want) || len(want) == 0 {
			t.Fatalf("%s shipped %d (%d in the snapshot), oracle %d", tc.name, sent, len(got), len(want))
		}
		for i, r := range got {
			if r.LId != want[i].LId || r.TOId != want[i].TOId || string(r.Body) != string(want[i].Body) {
				t.Fatalf("%s record %d = LId %d TOId %d, oracle LId %d TOId %d", tc.name, i, r.LId, r.TOId, want[i].LId, want[i].TOId)
			}
			if i > 0 && r.TOId <= got[i-1].TOId {
				t.Fatalf("%s record %d: TOId %d after %d", tc.name, i, r.TOId, got[i-1].TOId)
			}
		}
	}
}

// TestIngressRefusesUnencodableRecord: a record the log could not read back
// (core.CheckEncodable) is refused at every way in — the in-process append,
// injection, and the ingest endpoint, where the error keeps its identity —
// before it costs a TOId or a log position: the next append gets the first.
func TestIngressRefusesUnencodableRecord(t *testing.T) {
	dc := startDC(t, fastCfg(0, 1))
	huge := []core.Tag{{Key: string(make([]byte, 70000))}}
	if _, err := dc.Append([]byte("x"), huge); !errors.Is(err, core.ErrUnencodable) {
		t.Errorf("Append = %v, want ErrUnencodable", err)
	}
	if err := dc.TryInject([]*core.Record{{Body: []byte("fine")}, {Tags: huge}}); !errors.Is(err, core.ErrUnencodable) {
		t.Errorf("TryInject = %v, want ErrUnencodable", err)
	}
	srv := rpc.NewServer()
	ServeIngest(srv, dc)
	if err := NewIngestClient(rpc.NewLocalClient(srv)).Append([]*core.Record{{Tags: huge}}); !errors.Is(err, core.ErrUnencodable) {
		t.Errorf("remote ingest = %v, want ErrUnencodable", err)
	}
	ack, err := dc.Append([]byte("ok"), nil)
	if err != nil || ack.TOId != 1 || ack.LId != 1 {
		t.Fatalf("append after the refusals = %+v, %v; want TOId 1 at LId 1", ack, err)
	}
}

// TestProtocolRows is flstore's row tests for the three rows of this
// protocol: each row's type byte, name and serving class are what
// api/protocol.txt says they are, and both shapes of every row survive
// encode → decode → encode and reject every strict prefix of a valid
// encoding.
func TestProtocolRows(t *testing.T) {
	snapshot, err := os.ReadFile("../../api/protocol.txt")
	if err != nil {
		t.Fatal(err)
	}
	recs := []*core.Record{{Host: 2, TOId: 1, Body: []byte("r1")}, {Host: 2, TOId: 2, Tags: []core.Tag{{Key: "k", Value: "v"}}}}
	checkRow(t, snapshot, &rowReplicate, Snapshot{From: 2, Records: recs, ATable: []vclock.Vector{{1, 2}, {3, 4}}}, rpc.None{})
	checkRow(t, snapshot, &rowIngest, recs, rpc.None{})
	checkRow(t, snapshot, &rowApplied, rpc.None{}, vclock.Vector{3, 0, 7})
}

func checkRow[Q, R any](t *testing.T, snapshot []byte, row *rpc.Message[Q, R], q Q, r R) {
	t.Helper()
	if row.Detached || !strings.Contains(string(snapshot), fmt.Sprintf("\nchariots %02x %s in-order ", row.Type, row.Name)) {
		t.Errorf("api/protocol.txt has no in-order row %02x %s", row.Type, row.Name)
	}
	checkShape(t, row.Name+" request", row.Req, q)
	checkShape(t, row.Name+" reply", row.Reply, r)
}

func checkShape[T any](t *testing.T, name string, c rpc.Codec[T], v T) {
	t.Helper()
	valid, err := c.Put(nil, v)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	got, err := c.Get(valid, nil)
	if err != nil {
		t.Fatalf("%s: valid payload rejected: %v", name, err)
	}
	if again, _ := c.Put(nil, got); !bytes.Equal(again, valid) {
		t.Errorf("%s: decode then encode changed the payload:\n %x\n %x", name, valid, again)
	}
	for n := 0; n < len(valid); n++ {
		if _, err := c.Get(valid[:n], nil); err == nil {
			t.Errorf("%s: payload truncated to %d of %d bytes accepted", name, n, len(valid))
		}
	}
}
