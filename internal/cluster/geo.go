package cluster

import (
	"fmt"
	"time"

	"repro/internal/chariots"
	"repro/internal/core"
	"repro/internal/metrics"
)

// GeoCluster is a set of Chariots datacenters wired all-to-all through
// latency links — the multi-datacenter deployment of the visibility
// experiment.
type GeoCluster struct {
	DCs   []*chariots.Datacenter
	links []*chariots.LatencyLink
}

// NewGeoCluster builds and starts n datacenters with the given one-way
// inter-datacenter delay. cfg customizes the per-DC configuration (Self
// and NumDCs are overwritten).
func NewGeoCluster(n int, oneWay time.Duration, cfg chariots.Config) (*GeoCluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("cluster: need >= 1 datacenter")
	}
	g := &GeoCluster{}
	for i := 0; i < n; i++ {
		c := cfg
		c.Self = core.DCID(i)
		c.NumDCs = n
		dc, err := chariots.New(c)
		if err != nil {
			g.Stop()
			return nil, err
		}
		dc.Start()
		g.DCs = append(g.DCs, dc)
	}
	for i, from := range g.DCs {
		for j, to := range g.DCs {
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

// Stop halts every datacenter and link.
func (g *GeoCluster) Stop() {
	for _, l := range g.links {
		l.Close()
	}
	for _, dc := range g.DCs {
		dc.Stop()
	}
}

// VisibilityResult is one point of the geo-visibility experiment.
type VisibilityResult struct {
	// Mean/P99 time from a local append's acknowledgement to the record
	// being applied at the remote datacenter.
	Mean time.Duration
	P99  time.Duration
}

// RunGeoVisibility measures causal replication lag: how long after a
// record is ordered at its home datacenter it becomes visible at a peer,
// as a function of the one-way WAN delay. (An extension experiment — the
// paper motivates geo-replication but does not quantify visibility; the
// expected shape is lag ≈ one-way delay + pipeline time.)
func RunGeoVisibility(oneWay time.Duration, appends int) (VisibilityResult, error) {
	g, err := NewGeoCluster(2, oneWay, chariots.Config{Maintainers: 2})
	if err != nil {
		return VisibilityResult{}, err
	}
	defer g.Stop()

	hist := metrics.NewHistogram(0)
	a, b := g.DCs[0], g.DCs[1]
	for i := 0; i < appends; i++ {
		ack, err := a.Append([]byte(fmt.Sprintf("v%d", i)), nil)
		if err != nil {
			return VisibilityResult{}, err
		}
		start := time.Now()
		if !b.WaitForTOId(0, ack.TOId, 30*time.Second) {
			return VisibilityResult{}, fmt.Errorf("cluster: record %d never became visible", i)
		}
		hist.Observe(time.Since(start))
	}
	return VisibilityResult{Mean: hist.Mean(), P99: hist.Quantile(0.99)}, nil
}
