package cluster

// The elasticity experiment (§6.3 end-to-end): a loopback-TCP FLStore
// deployment serves an open-loop append load; mid-run the offered rate
// doubles past the old member set's admission capacity, the autoscaler
// sees sustained rejects and drives an epoch switchover through the
// Orchestrator (seal → drain → pad → flip → background migration), and
// the load finishes against the doubled member set. The run verifies the
// log survived the flip intact — every acknowledged LId unique and
// readable, the old epoch dense to the boundary, migration complete —
// and that append p99 after the flip returns to the pre-pressure band.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/flstore"
	"repro/internal/metrics"
	"repro/internal/ratelimit"
	"repro/internal/rpc"
	"repro/internal/scale"
)

// ElasticOptions configures the elasticity experiment. The placement
// widens from elasticBefore to elasticAfter maintainers at the switchover.
type ElasticOptions struct {
	// PerMaintainerRate is each maintainer's admission capacity in
	// records/sec (the limiter modeling machine capacity).
	PerMaintainerRate float64
	// BaseRate is phase A's aggregate offered rate; phases B and C offer
	// 2×BaseRate. Pick BaseRate < elasticBefore×PerMaintainerRate <
	// 2×BaseRate < elasticAfter×PerMaintainerRate so only the doubled load
	// saturates the old set.
	BaseRate float64
	// PhaseA/PhaseB/PhaseC are the three phase durations: steady state,
	// doubled load (the autoscaler fires in here), and post-flip steady
	// state.
	PhaseA, PhaseB, PhaseC time.Duration
	// Sessions is the concurrent client-session count per phase.
	Sessions int
	// AutoscaleTick is the autoscaler's observation period; two breaching
	// ticks in a row fire the switchover.
	AutoscaleTick time.Duration
}

const (
	elasticBefore, elasticAfter = 2, 4
	elasticRound                = 4
	elasticRecordSize           = 128
	elasticSeed                 = 42
)

// ElasticResult is the measured outcome.
type ElasticResult struct {
	MaintainersBefore int    `json:"maintainers_before"`
	MaintainersAfter  int    `json:"maintainers_after"`
	BoundaryLId       uint64 `json:"boundary_lid"`
	Epochs            int    `json:"epochs"`
	GrowTriggered     bool   `json:"grow_triggered"`
	AutoscaleTicks    int    `json:"autoscale_ticks"`
	MigrationDone     bool   `json:"migration_done"`
	RecordsMigrated   uint64 `json:"records_migrated"`
	// SealRetries counts appends that hit the sealed old epoch and
	// succeeded after a controller re-poll (§5.1 session refresh).
	SealRetries uint64 `json:"seal_retries"`
	// Per-phase completions and CO-safe p99s (intended-start latency).
	AppendsBefore uint64  `json:"appends_before"`
	AppendsDuring uint64  `json:"appends_during"`
	AppendsAfter  uint64  `json:"appends_after"`
	P99BeforeMs   float64 `json:"p99_before_ms"`
	P99DuringMs   float64 `json:"p99_during_ms"`
	P99AfterMs    float64 `json:"p99_after_ms"`
	// Integrity over every acknowledged append across all phases.
	UniqueLIds    int `json:"unique_lids"`
	DuplicateLIds int `json:"duplicate_lids"`
	LostLIds      int `json:"lost_lids"`
	// P99Bounded is the acceptance predicate: post-flip p99 within
	// max(50ms, 10× pre-flip p99).
	P99Bounded bool `json:"p99_bounded"`
}

// elasticStack is the running deployment the experiment drives: one rig
// per epoch's member set, and the controller they are reached through.
type elasticStack struct {
	reg      *metrics.Registry
	orch     *flstore.Orchestrator
	ctrlAddr string
	rigs     []*Rig
	ctrlSrv  *rpc.Server
}

func (st *elasticStack) close() {
	for _, rig := range st.rigs {
		rig.Close()
	}
	st.ctrlSrv.Close()
}

// startMembers stands up one epoch's maintainers, served over loopback TCP
// and gossiping, with their metrics labelled by epoch.
func (st *elasticStack) startMembers(p flstore.Placement, firstLId uint64, rate float64, epoch string) (flstore.MemberSet, error) {
	rig, err := NewRig(RigSpec{
		Maintainers: p.NumMaintainers, Round: p.BatchSize, TCP: true, Gossip: time.Millisecond,
		Member: func(_ int, cfg *flstore.MaintainerConfig) error {
			cfg.FirstLId = firstLId
			// A small burst keeps the capacity model crisp: offering more
			// than the aggregate rate must produce rejects within a fraction
			// of a second, not after draining a deep token bucket.
			cfg.Limiter = ratelimit.New(rate, 32)
			return nil
		},
		Serve: func(_ int, m *flstore.Maintainer) flstore.MaintainerAPI {
			m.EnableMetrics(st.reg, metrics.L("epoch", epoch))
			return m
		},
	})
	if err != nil {
		return flstore.MemberSet{}, err
	}
	st.rigs = append(st.rigs, rig)
	return flstore.MemberSet{Maintainers: rig.Maintainers, Addrs: rig.Addrs}, nil
}

// newElasticStack stands the deployment up: old members, controller with
// admin surface, and an orchestrator whose grow factory starts the new
// member set on demand.
func newElasticStack(opts ElasticOptions) (*elasticStack, error) {
	st := &elasticStack{reg: metrics.NewRegistry(), ctrlSrv: rpc.NewServer()}
	if err := st.start(opts); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

func (st *elasticStack) start(opts ElasticOptions) error {
	pOld := flstore.Placement{NumMaintainers: elasticBefore, BatchSize: elasticRound}
	old, err := st.startMembers(pOld, 1, opts.PerMaintainerRate, "1")
	if err != nil {
		return err
	}
	ctrl, err := flstore.NewController(flstore.Config{Placement: pOld, MaintainerAddrs: old.Addrs})
	if err != nil {
		return err
	}
	st.orch, err = flstore.NewOrchestrator(flstore.OrchestratorConfig{
		Controller: ctrl,
		Current:    old,
		Grow: func(p flstore.Placement, firstLId uint64) (flstore.MemberSet, error) {
			return st.startMembers(p, firstLId, opts.PerMaintainerRate, "2")
		},
	})
	if err != nil {
		return err
	}
	flstore.ServeController(st.ctrlSrv, ctrl)
	flstore.ServeStats(st.ctrlSrv, st.reg)
	flstore.ServeAdmin(st.ctrlSrv, st.orch)
	addr, err := st.ctrlSrv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	st.ctrlAddr = addr.String()
	return nil
}

// elasticSessions is a bank of per-session clients that re-poll the
// controller when their epoch is sealed under them — the §5.1 "after
// problems" session refresh. clients[i] belongs to session i's goroutine
// while a phase runs; mu guards everything the sessions share.
type elasticSessions struct {
	ctrlAddr string
	clients  []*flstore.Client

	mu          sync.Mutex
	conns       []*rpc.TCPClient
	lids        map[uint64]int
	dups        int
	sealRetries uint64
}

func newElasticSessions(ctrlAddr string, n int) (*elasticSessions, error) {
	es := &elasticSessions{
		ctrlAddr: ctrlAddr,
		clients:  make([]*flstore.Client, n),
		lids:     make(map[uint64]int),
	}
	for i := range es.clients {
		if err := es.refresh(i); err != nil {
			es.close()
			return nil, err
		}
	}
	return es, nil
}

func (es *elasticSessions) refresh(i int) error {
	conn, err := rpc.Dial(es.ctrlAddr)
	if err != nil {
		return err
	}
	es.mu.Lock()
	es.conns = append(es.conns, conn)
	es.mu.Unlock()
	es.clients[i], err = flstore.NewClient(flstore.NewControllerClient(conn))
	return err
}

func (es *elasticSessions) close() {
	for _, c := range es.conns {
		c.Close()
	}
}

// op issues one append for session i, refreshing the session on a sealed
// epoch before surfacing the (retryable) error to the engine.
func (es *elasticSessions) op(i int, body []byte) error {
	lid, err := es.clients[i].Append(body, nil)
	es.mu.Lock()
	if err == nil {
		if es.lids[lid]++; es.lids[lid] > 1 {
			es.dups++
		}
	} else if errors.Is(err, flstore.ErrEpochSealed) {
		es.sealRetries++
	}
	es.mu.Unlock()
	if errors.Is(err, flstore.ErrEpochSealed) {
		if rerr := es.refresh(i); rerr != nil {
			return rerr
		}
	}
	return err
}

// runPhase drives one open-loop phase and returns its stats.
func runPhase(es *elasticSessions, sessions int, rate float64, d time.Duration, seed uint64) scale.Stats {
	body := make([]byte, elasticRecordSize)
	eng := scale.NewEngine(scale.Config{
		Sessions:     sessions,
		TargetPerSec: rate,
		Duration:     d,
		Seed:         seed,
		RetryFor:     2 * time.Second,
		Op: func(session int, intended time.Time) error {
			return es.op(session, body)
		},
		Retry: func(err error) (time.Duration, bool) {
			if errors.Is(err, flstore.ErrEpochSealed) {
				// The session was refreshed inside op; go straight back.
				return time.Millisecond, true
			}
			if flstore.IsRetryable(err) {
				hint := flstore.RetryAfter(err)
				if hint <= 0 {
					hint = time.Millisecond
				}
				return hint, true
			}
			return 0, false
		},
	})
	return eng.Run()
}

// FullElastic is the full-size run behind `repro -exp elastic`.
var FullElastic = ElasticOptions{
	PerMaintainerRate: 1200,
	BaseRate:          1600,
	PhaseA:            1500 * time.Millisecond,
	PhaseB:            2500 * time.Millisecond,
	PhaseC:            1500 * time.Millisecond,
	Sessions:          8,
	AutoscaleTick:     100 * time.Millisecond,
}

// RunElastic executes the elasticity experiment.
func RunElastic(opts ElasticOptions) (ElasticResult, error) {
	res := ElasticResult{MaintainersBefore: elasticBefore, MaintainersAfter: elasticAfter}

	st, err := newElasticStack(opts)
	if err != nil {
		return res, err
	}
	defer st.close()

	// The autoscaler watches the registry and fires the switchover once
	// rejects persist. It runs for the whole experiment; phase A must not
	// trigger it.
	pNew := flstore.Placement{NumMaintainers: elasticAfter, BatchSize: elasticRound}
	as := NewAutoscaler(AutoscaleConfig{
		Snapshot: st.reg.Snapshot,
		Ticks:    2,
		GrowLog: func() error {
			_, gerr := st.orch.Grow(pNew)
			return gerr
		},
	})
	asCtx, asCancel := context.WithCancel(context.Background())
	asDone := make(chan struct{})
	go func() {
		defer close(asDone)
		// res's autoscale fields are this goroutine's until asDone closes.
		as.Run(asCtx, opts.AutoscaleTick, func(d AutoscaleDecision) {
			res.AutoscaleTicks++
			res.GrowTriggered = res.GrowTriggered || d.GrewLog
		})
	}()

	es, err := newElasticSessions(st.ctrlAddr, opts.Sessions)
	if err != nil {
		asCancel()
		<-asDone
		return res, err
	}
	defer es.close()

	// A ledger violation in any phase voids the run, after the autoscaler
	// has been stopped.
	phase := func(i uint64, rate float64, d time.Duration) LoadStats {
		ls, lerr := loadStats(runPhase(es, opts.Sessions, rate, d, elasticSeed+i))
		if err == nil {
			err = lerr
		}
		return ls
	}
	before := phase(0, opts.BaseRate, opts.PhaseA)
	during := phase(1, 2*opts.BaseRate, opts.PhaseB)
	after := phase(2, 2*opts.BaseRate, opts.PhaseC)
	asCancel()
	<-asDone
	if err != nil {
		return res, err
	}

	if !res.GrowTriggered {
		return res, errors.New("cluster: autoscaler never triggered the epoch flip")
	}
	if err := st.orch.WaitMigration(); err != nil {
		return res, err
	}

	// Inspect the epoch journal through the typed admin surface — the
	// same path logctl epochs takes.
	conn, err := rpc.Dial(st.ctrlAddr)
	if err != nil {
		return res, err
	}
	defer conn.Close()
	admin := flstore.NewAdmin(conn)
	eps, err := admin.Epochs(context.Background())
	if err != nil {
		return res, err
	}
	res.Epochs = len(eps)
	if len(eps) != 2 {
		return res, fmt.Errorf("cluster: expected 2 epochs after flip, journal has %d", len(eps))
	}
	res.BoundaryLId = eps[1].FirstLId
	res.MigrationDone = eps[0].MigrationDone
	res.RecordsMigrated = eps[0].RecordsStreamed
	if !res.MigrationDone {
		return res, errors.New("cluster: migration not complete after WaitMigration")
	}
	if want := res.BoundaryLId - 1; res.RecordsMigrated != want {
		return res, fmt.Errorf("cluster: migrated %d records, want the whole old epoch (%d)",
			res.RecordsMigrated, want)
	}

	// Integrity: every acknowledged LId unique and readable through the
	// epoch-routed read path (old-epoch positions hit the old members,
	// new-epoch positions the new).
	res.UniqueLIds = len(es.lids)
	res.DuplicateLIds = es.dups
	res.SealRetries = es.sealRetries
	for lid := range es.lids {
		if _, rerr := es.clients[0].ReadLId(lid); rerr != nil {
			res.LostLIds++
		}
	}
	if res.DuplicateLIds > 0 || res.LostLIds > 0 {
		return res, fmt.Errorf("cluster: log integrity broken across flip: %d duplicate, %d lost",
			res.DuplicateLIds, res.LostLIds)
	}

	res.AppendsBefore, res.P99BeforeMs = before.Completed, before.P99Ms
	res.AppendsDuring, res.P99DuringMs = during.Completed, during.P99Ms
	res.AppendsAfter, res.P99AfterMs = after.Completed, after.P99Ms
	bound := 10 * res.P99BeforeMs
	if bound < 50 {
		bound = 50
	}
	res.P99Bounded = res.P99AfterMs <= bound
	if !res.P99Bounded {
		return res, fmt.Errorf("cluster: post-flip p99 %.1fms exceeds bound %.1fms (pre-flip %.1fms)",
			res.P99AfterMs, bound, res.P99BeforeMs)
	}
	return res, nil
}
