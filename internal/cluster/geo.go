package cluster

import (
	"fmt"
	"time"

	"repro/internal/chariots"
	"repro/internal/core"
	"repro/internal/metrics"
)

// geoCluster is a set of Chariots datacenters wired all-to-all through
// latency links — the multi-datacenter deployment of the visibility
// experiment.
type geoCluster struct {
	dcs   []*chariots.Datacenter
	links []*chariots.LatencyLink
}

// newGeoCluster builds and starts n datacenters with the given one-way
// inter-datacenter delay. cfg customizes the per-DC configuration (Self
// and NumDCs are overwritten).
func newGeoCluster(n int, oneWay time.Duration, cfg chariots.Config) (*geoCluster, error) {
	g := &geoCluster{}
	for i := 0; i < n; i++ {
		c := cfg
		c.Self = core.DCID(i)
		c.NumDCs = n
		dc, err := chariots.New(c)
		if err != nil {
			g.stop()
			return nil, err
		}
		dc.Start()
		g.dcs = append(g.dcs, dc)
	}
	for i, from := range g.dcs {
		for j, to := range g.dcs {
			if i == j {
				continue
			}
			rxs := to.Receivers()
			wrapped := make([]chariots.ReceiverAPI, len(rxs))
			for k, rx := range rxs {
				if oneWay > 0 {
					l := chariots.NewLatencyLink(rx, oneWay)
					g.links = append(g.links, l)
					wrapped[k] = l
				} else {
					wrapped[k] = rx
				}
			}
			from.ConnectTo(core.DCID(j), wrapped)
		}
	}
	return g, nil
}

// stop halts every datacenter and link.
func (g *geoCluster) stop() {
	for _, l := range g.links {
		l.Close()
	}
	for _, dc := range g.dcs {
		dc.Stop()
	}
}

// visibilityLag measures causal replication lag over two datacenters: how
// long after each of appends records is ordered at its home datacenter it
// becomes visible at the peer, as the mean and p99.
func visibilityLag(oneWay time.Duration, appends int) (mean, p99 time.Duration, err error) {
	g, err := newGeoCluster(2, oneWay, chariots.Config{Maintainers: 2})
	if err != nil {
		return 0, 0, err
	}
	defer g.stop()

	hist := metrics.NewHistogram(0)
	a, b := g.dcs[0], g.dcs[1]
	for i := 0; i < appends; i++ {
		ack, err := a.Append([]byte(fmt.Sprintf("v%d", i)), nil)
		if err != nil {
			return 0, 0, err
		}
		start := time.Now()
		if !b.WaitForTOId(0, ack.TOId, 30*time.Second) {
			return 0, 0, fmt.Errorf("cluster: record %d never became visible", i)
		}
		hist.Observe(time.Since(start))
	}
	return hist.Mean(), hist.Quantile(0.99), nil
}

// geoVisibility sweeps the one-way WAN delay, one append per 40 ms of d
// (at least 10) per point. (An extension experiment — the paper motivates
// geo-replication but does not quantify visibility; the expected shape is
// lag ≈ one-way delay + pipeline time.)
func geoVisibility(d time.Duration, rep *Report) error {
	tb := &metrics.Table{Header: []string{"one-way delay", "mean visibility lag", "p99"}}
	for _, oneWay := range []time.Duration{0, 5 * time.Millisecond, 20 * time.Millisecond, 50 * time.Millisecond} {
		mean, p99, err := visibilityLag(oneWay, max(10, int(d/(40*time.Millisecond))))
		if err != nil {
			return err
		}
		tb.AddRow(oneWay.String(), mean.Round(100*time.Microsecond).String(), p99.Round(100*time.Microsecond).String())
		rep.Metric(fmt.Sprintf("visibility-ms@%s", oneWay), ms(mean))
	}
	rep.Printf("%s", tb)
	return nil
}
