package cluster

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/chariots"
	"repro/internal/hyksos"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// HyksosOptions configures the application-level benchmark: concurrent
// sessions running a put/get mix over a Zipf-distributed (skew 1.2) key
// space on one Chariots datacenter.
type HyksosOptions struct {
	Sessions int
	Keys     int
	// PutFraction in [0,1]; the rest are gets.
	PutFraction float64
	Duration    time.Duration
}

// HyksosResult summarizes the run.
type HyksosResult struct {
	Puts, Gets      uint64
	OpsPerSec       float64
	PutMean, PutP99 time.Duration
	GetMean, GetP99 time.Duration
	TxnMean         time.Duration
}

// RunHyksos drives the key-value store case study (§4.1): each session
// interleaves puts and gets, then runs get-transactions over a key group,
// measuring operation latencies and total throughput.
func RunHyksos(opts HyksosOptions) (*HyksosResult, error) {
	dc, err := chariots.New(chariots.Config{
		NumDCs:      1,
		Maintainers: 2,
		Indexers:    2,
	})
	if err != nil {
		return nil, err
	}
	dc.Start()
	defer dc.Stop()
	store := hyksos.NewStore(dc)

	chooser := workload.NewZipfKeys(opts.Keys, 1.2, 1)

	res := &HyksosResult{}
	putHist := metrics.NewHistogram(0)
	getHist := metrics.NewHistogram(0)
	txnHist := metrics.NewHistogram(0)
	// timed runs op and records its latency (the histograms lock
	// themselves); false means the op failed and the session gives up.
	timed := func(h *metrics.Histogram, op func() error) bool {
		start := time.Now()
		if op() != nil {
			return false
		}
		h.Observe(time.Since(start))
		return true
	}

	// Seed every key so gets never miss.
	seed := store.NewSession()
	for k := 0; k < opts.Keys; k++ {
		if err := seed.Put(fmt.Sprintf("k%d", k), "0"); err != nil {
			return nil, err
		}
	}

	var wg sync.WaitGroup
	watch := metrics.NewStopwatch()
	for range opts.Sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := store.NewSession()
			for i := 0; watch.Elapsed() < opts.Duration; i++ {
				key := chooser.Key()
				hist, op := getHist, func() error { _, err := sess.Get(key); return err }
				if float64(i%100)/100 < opts.PutFraction {
					hist, op = putHist, func() error { return sess.Put(key, fmt.Sprint(i)) }
				}
				if !timed(hist, op) {
					return
				}
				// Periodic get-transaction over a small key group.
				if i%50 == 49 && !timed(txnHist, func() error {
					_, err := sess.GetTxn(chooser.Key(), chooser.Key(), chooser.Key())
					return err
				}) {
					return
				}
			}
		}()
	}
	wg.Wait()
	watch.Stop()

	res.Puts, res.Gets = putHist.Count(), getHist.Count()
	res.OpsPerSec = float64(res.Puts+res.Gets) / watch.Elapsed().Seconds()
	res.PutMean, res.PutP99 = putHist.Mean(), putHist.Quantile(0.99)
	res.GetMean, res.GetP99 = getHist.Mean(), getHist.Quantile(0.99)
	res.TxnMean = txnHist.Mean()
	return res, nil
}
