package cluster

import (
	"fmt"
	"time"

	"repro/internal/chariots"
	"repro/internal/hyksos"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// hyksosWorkload drives the key-value store case study (§4.1) at two
// put/get mixes, d each: 4 concurrent sessions over 200 Zipf-distributed
// (skew 1.2) keys on one Chariots datacenter, each session interleaving
// puts and gets and running a get-transaction over a key group every 50
// operations. An operation that fails fails the row.
func hyksosWorkload(d time.Duration, rep *Report) error {
	for _, mix := range []struct {
		name string
		put  float64
	}{{"read-heavy (10% put)", 0.1}, {"balanced (50% put)", 0.5}} {
		if err := hyksosMix(mix.name, mix.put, d, rep); err != nil {
			return err
		}
	}
	return nil
}

// hyksosMix runs one mix of hyksosWorkload and reports its throughput and
// operation latencies.
func hyksosMix(name string, putFraction float64, d time.Duration, rep *Report) error {
	const sessions, keys = 4, 200
	dc, err := chariots.New(chariots.Config{
		NumDCs:      1,
		Maintainers: 2,
		Indexers:    2,
	})
	if err != nil {
		return err
	}
	dc.Start()
	defer dc.Stop()
	store := hyksos.NewStore(dc)
	chooser := workload.NewZipfKeys(keys, 1.2, 1)

	// Seed every key so gets never miss.
	seed := store.NewSession()
	for k := 0; k < keys; k++ {
		if err := seed.Put(fmt.Sprintf("k%d", k), "0"); err != nil {
			return err
		}
	}

	putHist := metrics.NewHistogram(0)
	getHist := metrics.NewHistogram(0)
	txnHist := metrics.NewHistogram(0)
	// timed runs op and records its latency (the histograms lock
	// themselves).
	timed := func(h *metrics.Histogram, op func() error) error {
		start := time.Now()
		if err := op(); err != nil {
			return err
		}
		h.Observe(time.Since(start))
		return nil
	}
	watch := metrics.NewStopwatch()
	session := func() error {
		sess := store.NewSession()
		for i := 0; watch.Elapsed() < d; i++ {
			key := chooser.Key()
			hist, op := getHist, func() error { _, err := sess.Get(key); return err }
			if float64(i%100)/100 < putFraction {
				hist, op = putHist, func() error { return sess.Put(key, fmt.Sprint(i)) }
			}
			if err := timed(hist, op); err != nil {
				return err
			}
			// Periodic get-transaction over a small key group.
			if i%50 == 49 {
				if err := timed(txnHist, func() error {
					_, err := sess.GetTxn(chooser.Key(), chooser.Key(), chooser.Key())
					return err
				}); err != nil {
					return err
				}
			}
		}
		return nil
	}
	errs := make(chan error, sessions)
	for range sessions {
		go func() { errs <- session() }()
	}
	for range sessions {
		if serr := <-errs; serr != nil && err == nil {
			err = serr
		}
	}
	watch.Stop()
	if err != nil {
		return fmt.Errorf("cluster: hyksos %s: %w", name, err)
	}

	puts, gets := putHist.Count(), getHist.Count()
	if puts == 0 || gets == 0 {
		return fmt.Errorf("cluster: hyksos %s measured %d puts and %d gets, want both", name, puts, gets)
	}
	opsPerSec := float64(puts+gets) / watch.Elapsed().Seconds()
	rep.Printf("%-22s %6.0f ops/s | put mean %v p99 %v | get mean %v p99 %v | get_txn mean %v\n",
		name, opsPerSec,
		putHist.Mean().Round(10*time.Microsecond), putHist.Quantile(0.99).Round(10*time.Microsecond),
		getHist.Mean().Round(10*time.Microsecond), getHist.Quantile(0.99).Round(10*time.Microsecond),
		txnHist.Mean().Round(10*time.Microsecond))
	rep.Metric(fmt.Sprintf("ops/s@put=%.0f%%", 100*putFraction), opsPerSec)
	return nil
}
