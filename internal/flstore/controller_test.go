package flstore

import (
	"testing"
)

func TestControllerDefaultEpoch(t *testing.T) {
	p := Placement{NumMaintainers: 3, BatchSize: 100}
	c, err := NewController(Config{Placement: p})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := c.GetConfig()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Epochs) != 1 || cfg.Epochs[0].FirstLId != 1 {
		t.Errorf("default epochs = %+v", cfg.Epochs)
	}
	if cfg.Placement != p {
		t.Errorf("placement = %+v", cfg.Placement)
	}
}

func TestControllerRejectsBadJournal(t *testing.T) {
	p := Placement{NumMaintainers: 1, BatchSize: 1}
	if _, err := NewController(Config{Placement: p, Epochs: []Epoch{{FirstLId: 5, Placement: p}}}); err == nil {
		t.Error("journal not starting at 1 accepted")
	}
	if _, err := NewController(Config{Placement: p, Epochs: []Epoch{
		{FirstLId: 1, Placement: p}, {FirstLId: 1, Placement: p},
	}}); err == nil {
		t.Error("non-increasing journal accepted")
	}
	if _, err := NewController(Config{}); err == nil {
		t.Error("invalid placement accepted")
	}
}

func TestControllerAnnounceEpoch(t *testing.T) {
	p1 := Placement{NumMaintainers: 2, BatchSize: 100}
	p2 := Placement{NumMaintainers: 4, BatchSize: 100}
	c, _ := NewController(Config{Placement: p1})
	if err := c.AnnounceEpochTopology(10001, p2, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.AnnounceEpochTopology(5000, p1, nil); err == nil {
		t.Error("backdated epoch accepted")
	}
	cfg, _ := c.GetConfig()
	if len(cfg.Epochs) != 2 || cfg.Placement != p2 {
		t.Errorf("config after announce = %+v", cfg)
	}
}

func TestPlacementAt(t *testing.T) {
	p1 := Placement{NumMaintainers: 2, BatchSize: 100}
	p2 := Placement{NumMaintainers: 4, BatchSize: 100}
	epochs := []Epoch{{FirstLId: 1, Placement: p1}, {FirstLId: 1000, Placement: p2}}
	tests := []struct {
		lid  uint64
		want Placement
	}{
		{1, p1}, {999, p1}, {1000, p2}, {5000, p2},
	}
	for _, tt := range tests {
		got, err := PlacementAt(epochs, tt.lid)
		if err != nil {
			t.Fatal(err)
		}
		if got != tt.want {
			t.Errorf("PlacementAt(%d) = %+v, want %+v", tt.lid, got, tt.want)
		}
	}
	if _, err := PlacementAt(nil, 1); err == nil {
		t.Error("empty journal accepted")
	}
	if _, err := PlacementAt([]Epoch{{FirstLId: 10, Placement: p1}}, 5); err == nil {
		t.Error("LId before first epoch accepted")
	}
}

func TestControllerConfigIsCopy(t *testing.T) {
	c, _ := NewController(Config{
		Placement:       Placement{NumMaintainers: 2, BatchSize: 1},
		MaintainerAddrs: []string{"a:1", "b:2"},
		IndexerAddrs:    []string{"c:3"},
	})
	cfg, _ := c.GetConfig()
	if len(cfg.MaintainerAddrs) != 2 || cfg.MaintainerAddrs[1] != "b:2" {
		t.Errorf("maintainer addrs = %v", cfg.MaintainerAddrs)
	}
	if len(cfg.IndexerAddrs) != 1 {
		t.Errorf("indexer addrs = %v", cfg.IndexerAddrs)
	}
	// Returned config must be a copy.
	cfg.MaintainerAddrs[0] = "mutated"
	cfg2, _ := c.GetConfig()
	if cfg2.MaintainerAddrs[0] != "a:1" {
		t.Error("GetConfig aliases controller state")
	}
}
