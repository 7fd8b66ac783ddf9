package flstore

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/replica"
	"repro/internal/rpc"
)

// shapeCase is one side of a row with its type erased: a valid encoding,
// and decode-then-encode over arbitrary bytes.
type shapeCase struct {
	side   string
	valid  []byte
	recode func([]byte) ([]byte, error)
}

// rowCase is one row of the protocol table with a sample request and reply.
type rowCase struct {
	typ      uint8
	name     string
	detached bool
	sides    [2]shapeCase
}

func shapeOf[T any](side string, c rpc.Codec[T], v T) shapeCase {
	valid, err := c.Put(nil, v)
	if err != nil {
		panic(err)
	}
	return shapeCase{side, valid, func(p []byte) ([]byte, error) {
		v, err := c.Get(p, nil)
		if err != nil {
			return nil, err
		}
		return c.Put(nil, v)
	}}
}

func caseOf[Q, R any](row *rpc.Message[Q, R], q Q, r R) rowCase {
	return rowCase{row.Type, row.Name, row.Detached,
		[2]shapeCase{shapeOf("request", row.Req, q), shapeOf("reply", row.Reply, r)}}
}

// protocolCases lists every row of the table; TestProtocolTableIsCovered
// fails when a row is added without one.
func protocolCases() []rowCase {
	recs := []*core.Record{
		{LId: 1, TOId: 1, Host: 0, Body: []byte("a")},
		{LId: 2, TOId: 2, Host: 1,
			Tags: []core.Tag{{Key: "stream", Value: "orders"}},
			Deps: []core.Dep{{DC: 0, TOId: 1}},
			Body: []byte("a body that is long enough to matter")},
	}
	lids := []uint64{1, 2, 3}
	// An append's reply: the LIds with the frontier vector past their length.
	assigned := []uint64{1, 2, 3, 9, 17, 25}[:3]
	cfg := &Config{
		Placement:       Placement{NumMaintainers: 2, BatchSize: 4},
		MaintainerAddrs: []string{"m0:1", "m1:1"},
		IndexerAddrs:    []string{"ix:1"},
		Epochs: []Epoch{
			{FirstLId: 1, Placement: Placement{NumMaintainers: 1, BatchSize: 4}, MaintainerAddrs: []string{"old:1"}},
			{FirstLId: 9, Placement: Placement{NumMaintainers: 2, BatchSize: 4}},
		},
		Replication: 3,
		AckPolicy:   "majority",
	}
	reg := metrics.NewRegistry()
	reg.Counter("c_total", metrics.L("k", "v")).Add(3)
	reg.Histogram("h_seconds", metrics.LatencyBuckets).Observe(0.01)
	epoch := EpochStatus{Epoch: 1, FirstLId: 9, NumMaintainers: 2, BatchSize: 4, MaintainerAddrs: []string{"m0:1"}, RangesTotal: 2}
	return []rowCase{
		caseOf(&rowAppend, recs, assigned),
		caseOf(&rowAppendAssigned, recs, none{}),
		caseOf(&rowAppendAfter, afterReq{7, recs}, lids),
		caseOf(&rowRead, 7, recs[1]),
		caseOf(&rowHead, none{}, 9),
		caseOf(&rowNextUnfilled, none{}, 10),
		caseOf(&rowPost, []Posting{{Key: "k", Value: "v", LId: 7}, {Key: "", Value: "", LId: 8}}, none{}),
		caseOf(&rowLookup, LookupQuery{Key: "k", Cmp: core.CmpEQ, Value: "v", MaxLIdExclusive: 9, Limit: 2, MostRecent: true}, lids),
		caseOf(&rowGetConfig, none{}, cfg),
		caseOf(&rowStats, none{}, reg.Snapshot()),
		caseOf(&rowAppendFor, forReq{2, recs}, assigned),
		caseOf(&rowReplicaAppend, recs, none{}),
		caseOf(&rowRangeFrontier, 2, 17),
		caseOf(&rowPullRange, pullReq{2, 17, 64}, recs),
		caseOf(&rowReplicas, none{}, &replica.ClusterStatus{Replication: 3, Ack: "majority", Groups: []replica.GroupStatus{{Range: 0}}}),
		caseOf(&rowReadRange, RangeQuery{Lo: 2, Hi: 10, Range: -1, MaxRecords: 64, MaxBytes: 4096}, RangeResult{Records: recs, CoveredHi: 2}),
		caseOf(&rowMultiRead, lids, recs),
		caseOf(&rowTailWait, tailReq{-1, 18, 50 * time.Millisecond}, 19),
		caseOf(&rowInvalidate, boundReq{2, 27}, none{}),
		caseOf(&rowWatermark, 2, marks{19, 27}),
		caseOf(&rowGossipVecs, vecs{lids, []uint64{1, 0, 0}}, vecs{lids, lids}),
		caseOf(&rowAdminEpochs, none{}, []EpochStatus{epoch}),
		caseOf(&rowAdminPropose, EpochProposal{NumMaintainers: 2, MaintainerAddrs: []string{"m0:1", "m1:1"}}, epoch),
	}
}

// retiredTypes are the message types whose rows left the protocol: 05 was
// Scan. Their type bytes stay reserved, so no later row's byte moved.
var retiredTypes = map[uint8]bool{5: true}

// TestProtocolTableIsCovered holds the table and its two mirrors together:
// protocolCases has exactly one case per message type that is not retired,
// and each row's type byte, name and serving class are what
// api/protocol.txt — captured from outside the package by
// TestProtocolGolden — says they are.
func TestProtocolTableIsCovered(t *testing.T) {
	snapshot, err := os.ReadFile("../../api/protocol.txt")
	if err != nil {
		t.Fatal(err)
	}
	cases := protocolCases()
	if len(cases)+len(retiredTypes) != int(msgAdminPropose) {
		t.Fatalf("%d cases and %d retired types for %d message types", len(cases), len(retiredTypes), msgAdminPropose)
	}
	for typ := range retiredTypes {
		if want := fmt.Sprintf("\nflstore %02x ", typ); strings.Contains(string(snapshot), want) {
			t.Errorf("api/protocol.txt still has a row of retired type %02x", typ)
		}
	}
	typ := uint8(1)
	for i, c := range cases {
		for retiredTypes[typ] {
			typ++
		}
		if c.typ != typ {
			t.Errorf("case %d is row %s of type %d, want type %d", i, c.name, c.typ, typ)
		}
		typ++
		class := "in-order"
		if c.detached {
			class = "detached"
		}
		if want := fmt.Sprintf("\nflstore %02x %s %s ", c.typ, c.name, class); !strings.Contains(string(snapshot), want) {
			t.Errorf("api/protocol.txt has no line starting %q", want[1:])
		}
	}
}

// TestAppendReplyCarriesFrontierVector: the two append rows deliver the
// maintainer's frontier vector behind the LIds, and the RPC handle hands it
// on in the spare capacity of the LIds it stamps, whatever its width — a
// narrower placement's vector is the session's to refuse
// (replica.TestObserveRefusesOtherWidths).
func TestAppendReplyCarriesFrontierVector(t *testing.T) {
	for _, row := range []*rpc.Codec[[]uint64]{&rowAppend.Reply, &rowAppendFor.Reply} {
		for _, sent := range [][]uint64{[]uint64{4, 5, 9, 17, 25}[:2], []uint64{4, 5, 9, 17}[:2], {4, 5}} {
			p, err := row.Put(nil, sent)
			if err != nil {
				t.Fatal(err)
			}
			reply, err := row.Get(p, nil)
			if err != nil {
				t.Fatal(err)
			}
			recs := []*core.Record{{}, {}}
			got := stampLIds(recs, reply)
			if fmt.Sprint(got, got[len(got):cap(got)]) != fmt.Sprint(sent, sent[len(sent):cap(sent)]) {
				t.Errorf("sent %v + %v, got %v + %v", sent, sent[len(sent):cap(sent)], got, got[len(got):cap(got)])
			}
			if recs[0].LId != 4 || recs[1].LId != 5 {
				t.Errorf("stamped LIds %d, %d, want 4, 5", recs[0].LId, recs[1].LId)
			}
		}
	}
}

// allocated runs fn and returns the bytes it allocated.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecodersRejectShortAndInflatedPayloads feeds both shapes of every row
// each strict prefix of a valid encoding — every one must come back as an
// error — and the valid encoding with ff ff ff ff written over each
// position in turn, which puts an absurd value in every count and length
// field the shape has. None of it may panic or allocate by the claimed
// count: a four-byte ff ff ff ff request must not ask the allocator for
// gigabytes.
func TestDecodersRejectShortAndInflatedPayloads(t *testing.T) {
	// The five decoders this test listed by hand before it looped over the
	// table keep their subtest names, so their history stays comparable.
	listed := map[string]string{
		"Post/request": "decodePostings", "GetConfig/reply": "decodeConfig", "MultiRead/request": "decodeLIds",
		"Lookup/request": "decodeLookup",
	}
	huge := []byte{0xff, 0xff, 0xff, 0xff}
	for _, c := range protocolCases() {
		for _, s := range c.sides {
			name := c.name + "/" + s.side
			if was, ok := listed[name]; ok {
				name = was
			}
			t.Run(name, func(t *testing.T) {
				again, err := s.recode(s.valid)
				if err != nil {
					t.Fatalf("valid payload rejected: %v", err)
				}
				if !bytes.Equal(again, s.valid) {
					t.Fatalf("decode then encode changed the payload:\n %x\n %x", s.valid, again)
				}
				for n := 0; n < len(s.valid); n++ {
					if _, err := s.recode(s.valid[:n]); err == nil {
						t.Errorf("payload truncated to %d of %d bytes accepted", n, len(s.valid))
					}
				}
				inflated := [][]byte{huge, append(append([]byte(nil), huge...), make([]byte, 64)...)}
				for i := 0; i+len(huge) <= len(s.valid); i++ {
					p := append([]byte(nil), s.valid...)
					copy(p[i:], huge)
					inflated = append(inflated, p)
				}
				for i, p := range inflated {
					if grew := allocated(func() { s.recode(p) }); grew > 1<<20 {
						t.Errorf("inflated payload %d (%d bytes) allocated %d bytes", i, len(p), grew)
					}
				}
			})
		}
	}
}

// FuzzProtocolRows throws arbitrary bytes at both shapes of every row: no
// decoder may panic, and whatever one accepts must survive encode → decode
// → encode unchanged.
func FuzzProtocolRows(f *testing.F) {
	cases := protocolCases()
	for i, c := range cases {
		for side, s := range c.sides {
			f.Add(uint8(i), side == 1, s.valid)
			if len(s.valid) > 3 {
				f.Add(uint8(i), side == 1, s.valid[:len(s.valid)-3])
			}
		}
	}
	f.Fuzz(func(t *testing.T, row uint8, reply bool, data []byte) {
		s := cases[int(row)%len(cases)].sides[0]
		if reply {
			s = cases[int(row)%len(cases)].sides[1]
		}
		first, err := s.recode(data)
		if err != nil {
			return
		}
		second, err := s.recode(first)
		if err != nil {
			t.Fatalf("%s %s: re-encoded payload rejected: %v", cases[int(row)%len(cases)].name, s.side, err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("%s %s: encoding is not a fixed point:\n %x\n %x", cases[int(row)%len(cases)].name, s.side, first, second)
		}
	})
}
