package chariots

import (
	"fmt"
	"sync"

	"repro/internal/metrics"
	"repro/internal/ratelimit"
)

// StageMachine is the common substrate of one simulated machine in the
// Chariots pipeline (§6.2): a name for the experiment tables, a capacity
// limiter standing in for the machine's NIC/CPU bound, and a processed-
// records counter that the evaluation samples.
type StageMachine struct {
	Name      string
	Limiter   *ratelimit.Limiter
	Processed metrics.Counter

	// batchSize, when set (by Datacenter.EnableMetrics, before the stage
	// starts), observes the records-per-batch distribution this machine
	// sees — undersized batches at a stage mean its upstream is flushing
	// on the interval rather than the threshold.
	batchSize *metrics.BucketHistogram
	// handoffWait, set the same way for the stages that used to wait out a
	// timer (batcher, sender), observes per flush/shipment how long its
	// oldest record sat in the stage before it was handed on.
	handoffWait *metrics.BucketHistogram
}

// work charges n records against the machine's capacity (blocking until
// admitted — upstream backpressure forms through the bounded channels that
// feed the machine) and counts them as processed.
func (s *StageMachine) work(n int) {
	s.Limiter.WaitN(n)
	s.Processed.Add(uint64(n))
	if h := s.batchSize; h != nil {
		h.Observe(float64(n))
	}
}

// Throughput rows for the experiment tables are read via Name/Processed.

// stageGroup tracks the goroutines of one datacenter so Stop can join them.
type stageGroup struct {
	wg   sync.WaitGroup
	stop chan struct{}
}

func newStageGroup() *stageGroup { return &stageGroup{stop: make(chan struct{})} }

// go1 runs fn in a tracked goroutine.
func (g *stageGroup) go1(fn func()) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		fn()
	}()
}

// halt signals every stage and waits for all goroutines.
func (g *stageGroup) halt() {
	select {
	case <-g.stop:
	default:
		close(g.stop)
	}
	g.wg.Wait()
}

// machineName formats a stage machine's display name ("Batcher 2").
func machineName(kind string, i, total int) string {
	if total == 1 {
		return kind
	}
	return fmt.Sprintf("%s %d", kind, i+1)
}
