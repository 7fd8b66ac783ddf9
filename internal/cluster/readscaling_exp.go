package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/flstore"
	"repro/internal/replica"
)

// The replica read-scaling sweep: the same hot range read by three
// maintainers under growing replica-group sizes. Every point runs over
// real loopback TCP with one shared connection per maintainer, so each
// member models a fixed serving capacity (the server handles one
// connection's requests in order); the sweep measures how much aggregate
// read throughput the invalidation protocol unlocks by letting any valid
// replica answer locally instead of funneling every read to the owner.
const (
	readScalingMaintainers = 3
	readScalingRecordSize  = 128
	// readScalingRound, readScalingRecords and readScalingReaders are the
	// placement round, the preloaded log size and the concurrent reader
	// goroutines of every point.
	readScalingRound   = 8
	readScalingRecords = 3_000
	readScalingReaders = 16
	// readServiceDelay is each member's per-read service time: the serving
	// loop holds the connection for this long per request, modeling a
	// member whose reads cost real work (storage, WAN hop) rather than a
	// loopback cache hit. Sleeping instead of spinning keeps the model
	// honest on small machines — per-member capacity is 1/readServiceDelay
	// regardless of host core count, so the sweep measures protocol-level
	// read spreading, not scheduler noise.
	readServiceDelay = 100 * time.Microsecond
)

// pacedMember fronts a maintainer with the fixed per-read service time. It
// embeds the maintainer, so it serves the whole MaintainerAPI; only Read —
// the swept call — is paced. Reads are served inline in connection order,
// so the delay bounds one connection's read throughput exactly like a busy
// member would.
type pacedMember struct{ *flstore.Maintainer }

func (p pacedMember) Read(lid uint64) (*core.Record, error) {
	time.Sleep(readServiceDelay)
	return p.Maintainer.Read(lid)
}

// readScalingPoint measures aggregate single-record read throughput
// against one hot range, read for budget, with r members per replica
// group.
func readScalingPoint(r int, budget time.Duration) (ReadScalingPoint, error) {
	pt := ReadScalingPoint{Replication: r}

	// Real TCP stack, one shared pipelined connection per maintainer: the
	// server serves a connection's requests in order, so per-member
	// throughput is bounded no matter how many client goroutines pile on —
	// the capacity model that makes replica spreading measurable. (The
	// in-process LocalClient dispatches on the caller's goroutine and would
	// show no scaling at all.) AckAll preloading: every group member holds
	// every payload before the measurement starts, so reads never block on
	// an in-flight invalidation and the sweep isolates read-path capacity.
	rig, err := NewRig(RigSpec{
		Maintainers: readScalingMaintainers, Replication: r, Round: readScalingRound,
		Ack: replica.AckAll, TCP: true,
		Serve: func(_ int, m *flstore.Maintainer) flstore.MaintainerAPI { return pacedMember{m} },
	})
	if err != nil {
		return pt, err
	}
	defer rig.Close()
	client, p := rig.Client, rig.Placement
	client.Session().SetReadPolicy(replica.SpreadReads())
	body := make([]byte, readScalingRecordSize)
	for appended := 0; appended < readScalingRecords; appended++ {
		if _, err := client.Append(body, nil); err != nil {
			return pt, err
		}
	}

	// The hot set is range 0's positions: with R=1 only maintainer 0 can
	// answer them; with R=3 all three members serve them from local store.
	head, err := client.HeadExact()
	if err != nil {
		return pt, err
	}
	hot := make([]uint64, 0, int(head)/readScalingMaintainers+1)
	for lid := uint64(1); lid <= head; lid++ {
		if p.Owner(lid) == 0 {
			hot = append(hot, lid)
		}
	}
	if len(hot) == 0 {
		return pt, fmt.Errorf("no records landed in range 0 (head %d)", head)
	}
	pt.Records = len(hot)

	var (
		next  atomic.Uint64 // round-robin cursor over the hot set
		reads atomic.Uint64
		stop  atomic.Bool
		fail  atomic.Pointer[error]
	)
	var wg sync.WaitGroup
	for range readScalingReaders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				lid := hot[next.Add(1)%uint64(len(hot))]
				if _, err := client.ReadLId(lid); err != nil {
					err := fmt.Errorf("read LId %d: %w", lid, err)
					fail.CompareAndSwap(nil, &err)
					return
				}
				reads.Add(1)
			}
		}()
	}
	start := time.Now()
	time.Sleep(budget)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)
	if ep := fail.Load(); ep != nil {
		return pt, *ep
	}
	if reads.Load() == 0 {
		return pt, fmt.Errorf("no read completed in %v", budget)
	}
	pt.ReadsPerSec = float64(reads.Load()) / elapsed.Seconds()
	return pt, nil
}
