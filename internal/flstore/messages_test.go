package flstore

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/core"
)

// TestDecodersRejectShortAndInflatedPayloads feeds every hand-rolled
// control-plane decoder each strict prefix of a valid encoding and payloads
// whose count (or string length) field claims far more elements than the
// bytes behind it hold. Every one must come back as an error — no panic,
// and no allocation sized by the claimed count: a four-byte ff ff ff ff
// request must not ask the allocator for gigabytes.
func TestDecodersRejectShortAndInflatedPayloads(t *testing.T) {
	huge := []byte{0xff, 0xff, 0xff, 0xff}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
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
	cfgHead := make([]byte, 12) // placement
	none := make([]byte, 4)     // a zero count
	oneEpoch := cat([]byte{1, 0, 0, 0}, make([]byte, 20))
	rule := core.Rule{MinLId: 3, MaxLId: 9, HasHost: true, Host: 2, TagKey: "k", TagCmp: core.CmpEQ, TagValue: "v", Limit: 5, MostRecent: true}
	cases := []struct {
		name     string
		decode   func([]byte) error
		valid    []byte
		inflated [][]byte
	}{
		{
			name:     "decodePostings",
			decode:   func(b []byte) error { _, err := decodePostings(b); return err },
			valid:    appendPostings(nil, []Posting{{Key: "k", Value: "v", LId: 7}, {Key: "", Value: "", LId: 8}}),
			inflated: [][]byte{huge, cat(huge, make([]byte, 64))},
		},
		{
			name:   "decodeConfig",
			decode: func(b []byte) error { _, err := decodeConfig(b); return err },
			valid:  appendConfig(nil, cfg),
			inflated: [][]byte{
				cat(cfgHead, huge),                       // maintainer addrs
				cat(cfgHead, none, huge),                 // indexer addrs
				cat(cfgHead, none, none, huge),           // epochs
				cat(cfgHead, none, none, oneEpoch, huge), // an epoch's addrs
			},
		},
		{
			name:     "decodeLIds",
			decode:   func(b []byte) error { _, _, err := decodeLIds(b); return err },
			valid:    appendLIds(nil, []uint64{1, 2, 3}),
			inflated: [][]byte{huge, cat(huge, make([]byte, 64))},
		},
		{
			name:     "decodeLookup",
			decode:   func(b []byte) error { _, err := decodeLookup(b); return err },
			valid:    appendLookup(nil, LookupQuery{Key: "k", Cmp: core.CmpEQ, Value: "v", MaxLIdExclusive: 9, Limit: 2, MostRecent: true}),
			inflated: [][]byte{{0xff, 0xff, 'k'}},
		},
		{
			name:     "decodeRule",
			decode:   func(b []byte) error { _, _, err := decodeRule(b); return err },
			valid:    appendRule(nil, rule),
			inflated: [][]byte{cat(appendRule(nil, core.Rule{})[:43], []byte{0xff, 0xff, 'k'})},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.decode(tc.valid); err != nil {
				t.Fatalf("valid payload rejected: %v", err)
			}
			for n := 0; n < len(tc.valid); n++ {
				if err := tc.decode(tc.valid[:n]); err == nil {
					t.Errorf("payload truncated to %d of %d bytes accepted", n, len(tc.valid))
				}
			}
			for i, p := range tc.inflated {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				err := tc.decode(p)
				runtime.ReadMemStats(&after)
				if err == nil {
					t.Errorf("inflated payload %d accepted", i)
				}
				if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
					t.Errorf("inflated payload %d (%d bytes) allocated %d bytes", i, len(p), grew)
				}
			}
		})
	}
}
