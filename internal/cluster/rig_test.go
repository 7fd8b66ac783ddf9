package cluster

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/flstore"
	"repro/internal/replica"
	"repro/internal/storage"
)

// TestRig stands the same small deployment up in-process and over TCP,
// unreplicated and fully replicated, and checks it is a working log:
// every append lands, the head covers them, every LId reads back, and
// Close can be called twice.
func TestRig(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		for _, r := range []int{1, 3} {
			t.Run(fmt.Sprintf("tcp=%v/R=%d", tcp, r), func(t *testing.T) {
				rig, err := NewRig(RigSpec{Maintainers: 3, Replication: r, Round: 4, Ack: replica.AckAll, TCP: tcp})
				if err != nil {
					t.Fatal(err)
				}
				defer rig.Close()
				if len(rig.Maintainers) != 3 || len(rig.Handles) != 3 || (len(rig.Addrs) == 3) != tcp {
					t.Fatalf("rig has %d maintainers, %d handles, %d addrs", len(rig.Maintainers), len(rig.Handles), len(rig.Addrs))
				}
				// A whole number of placement cycles, so the head is dense.
				const n = 24
				for i := 0; i < n; i++ {
					if _, err := rig.Client.Append([]byte(fmt.Sprintf("r%d", i)), nil); err != nil {
						t.Fatalf("append %d: %v", i, err)
					}
				}
				head, err := rig.Client.HeadExact()
				if err != nil || head != n {
					t.Fatalf("HeadExact = %d, %v; want %d", head, err, n)
				}
				for lid := uint64(1); lid <= head; lid++ {
					if rec, err := rig.Client.ReadLId(lid); err != nil || rec.LId != lid {
						t.Fatalf("read LId %d: %+v, %v", lid, rec, err)
					}
				}
				if err := rig.Close(); err != nil {
					t.Fatalf("Close: %v", err)
				}
				if err := rig.Close(); err != nil {
					t.Fatalf("second Close: %v", err)
				}
				if _, err := rig.Client.Append([]byte("late"), nil); err == nil {
					t.Error("append succeeded on a closed rig")
				}
			})
		}
	}
}

// closeCounting is a store that records being closed.
type closeCounting struct {
	storage.Store
	closed *atomic.Int32
}

func (s closeCounting) Close() error {
	s.closed.Add(1)
	return s.Store.Close()
}

// TestRigReleasesOnConstructorError fails member 2's constructor after
// members 0 and 1 are fully up (store opened, listener bound, connection
// dialed): NewRig must hand back no rig and leave nothing of them behind.
func TestRigReleasesOnConstructorError(t *testing.T) {
	before := runtime.NumGoroutine()
	boom := errors.New("member 2 has no disk")
	var opened, closed atomic.Int32
	rig, err := NewRig(RigSpec{
		Maintainers: 3, Round: 4, TCP: true, Gossip: time.Millisecond,
		Member: func(i int, cfg *flstore.MaintainerConfig) error {
			if i == 2 {
				return boom
			}
			opened.Add(1)
			cfg.Store = closeCounting{storage.NewMemStore(), &closed}
			return nil
		},
	})
	if !errors.Is(err, boom) || rig != nil {
		t.Fatalf("NewRig = %v, %v; want nil rig and the member error", rig, err)
	}
	if opened.Load() != 2 || closed.Load() != 2 {
		t.Errorf("stores opened %d, closed %d; want 2 and 2", opened.Load(), closed.Load())
	}
	// Listeners and connections are goroutines (accept loop, per-connection
	// serve and read loops); all of them must wind down.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before NewRig, %d still running after its failure", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
