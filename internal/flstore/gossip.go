package flstore

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// Gossiper drives the §5.4 head-of-log gossip for one maintainer: on a
// fixed interval it pushes the maintainer's next-unfilled and
// durable-watermark vectors to every peer and absorbs each peer's from the
// reply. The message size is fixed (2N LIds each way), independent of
// append throughput — the property the paper relies on for gossip not
// becoming a bottleneck.
type Gossiper struct {
	self     *Maintainer
	peers    []MaintainerAPI // index-aligned; entry for self may be nil
	interval time.Duration

	mu      sync.Mutex
	stop    chan struct{}
	done    chan struct{}
	started bool

	// lastRound is the wall time (UnixNano) of the most recent completed
	// Round; 0 until the first. A stalled gossip loop shows up as this
	// age growing past a few intervals — the head of the log then lags
	// real progress, stalling EnforceHead reads.
	lastRound atomic.Int64
	rounds    metrics.Counter

	// silent[j] is 1 while the last exchange with peer j failed — the
	// per-peer staleness signal: while a peer is silent its own
	// contribution freezes, and only the entries its group's survivors
	// carry keep the head of the log advancing.
	silent []atomic.Int64
}

// NewGossiper returns a gossiper for m. peers must be index-aligned with
// the placement; the entry at m's own index is ignored.
func NewGossiper(m *Maintainer, peers []MaintainerAPI, interval time.Duration) *Gossiper {
	if interval <= 0 {
		interval = 5 * time.Millisecond
	}
	return &Gossiper{
		self:     m,
		peers:    peers,
		interval: interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		silent:   make([]atomic.Int64, len(peers)),
	}
}

// Start launches the gossip loop. Safe to call once.
func (g *Gossiper) Start() {
	g.mu.Lock()
	if g.started {
		g.mu.Unlock()
		return
	}
	g.started = true
	g.mu.Unlock()
	go g.loop()
}

func (g *Gossiper) loop() {
	defer close(g.done)
	ticker := time.NewTicker(g.interval)
	defer ticker.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-ticker.C:
			g.Round()
		}
	}
}

// Round performs one synchronous gossip exchange with every peer. Exposed
// so tests and deterministic simulations can gossip without timers. A peer
// whose exchange fails (or whose reply does not fit this placement) is
// marked silent until one succeeds again.
func (g *Gossiper) Round() {
	vec := g.self.NextVec()
	dur := g.self.DurableVec()
	for j, peer := range g.peers {
		if j == g.self.Index() || peer == nil {
			continue
		}
		theirNext, theirDur, err := peer.GossipVecs(vec, dur)
		if err == nil {
			_, _, err = g.self.GossipVecs(theirNext, theirDur)
		}
		if err != nil {
			g.silent[j].Store(1)
			continue // unreachable peer; retry next round
		}
		g.silent[j].Store(0)
	}
	g.lastRound.Store(time.Now().UnixNano())
	g.rounds.Inc()
}

// SilentPeers returns how many peers failed their most recent exchange.
func (g *Gossiper) SilentPeers() int {
	n := 0
	for j := range g.silent {
		if g.silent[j].Load() != 0 {
			n++
		}
	}
	return n
}

// PeerSilent reports whether peer j's last exchange failed.
func (g *Gossiper) PeerSilent(j int) bool {
	return j >= 0 && j < len(g.silent) && g.silent[j].Load() != 0
}

// RoundAge returns how long ago the last gossip round completed, or a
// negative duration if none has.
func (g *Gossiper) RoundAge() time.Duration {
	ns := g.lastRound.Load()
	if ns == 0 {
		return -1
	}
	return time.Since(time.Unix(0, ns))
}

// EnableMetrics exports gossip liveness for this maintainer: the age of the
// last completed round (seconds; -1 before the first) and the total round
// count. Call before Start.
func (g *Gossiper) EnableMetrics(reg *metrics.Registry, extra ...metrics.Label) {
	lbls := append([]metrics.Label{metrics.L("maintainer", strconv.Itoa(g.self.Index()))}, extra...)
	reg.GaugeFunc("flstore_gossip_round_age_seconds", func() float64 {
		if g.lastRound.Load() == 0 {
			return -1
		}
		return g.RoundAge().Seconds()
	}, lbls...)
	reg.CounterFunc("flstore_gossip_rounds_total", func() float64 { return float64(g.rounds.Value()) }, lbls...)
	for j := range g.peers {
		if j == g.self.Index() || g.peers[j] == nil {
			continue
		}
		j := j
		reg.GaugeFunc("flstore_gossip_peer_silent", func() float64 {
			if g.PeerSilent(j) {
				return 1
			}
			return 0
		}, append([]metrics.Label{metrics.L("peer", strconv.Itoa(j))}, lbls...)...)
	}
}

// Stop halts the loop and waits for it to exit.
func (g *Gossiper) Stop() {
	g.mu.Lock()
	if !g.started {
		g.mu.Unlock()
		return
	}
	g.mu.Unlock()
	select {
	case <-g.stop:
	default:
		close(g.stop)
	}
	<-g.done
}
