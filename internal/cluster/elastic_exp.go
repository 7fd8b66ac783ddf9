package cluster

// The elasticity experiment (§6.3 end-to-end): a loopback-TCP FLStore
// deployment serves an open-loop append load; mid-run the offered rate
// doubles past the old member set's admission capacity, the autoscaler
// sees sustained rejects and drives an epoch switchover through the
// Orchestrator (seal → build → announce → drain → pad → background
// migration), and
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

// Sizes: each maintainer admits elasticRate records/s (the limiter
// modelling machine capacity); phase A offers elasticBaseRate, below the old
// set's capacity, and phases B and C offer twice that, above the old set's
// and below the new set's — so only the doubled load saturates the old set.
// elasticSessions concurrent client sessions run every phase.
const (
	elasticBefore, elasticAfter = 2, 4
	elasticRound                = 4
	elasticRecordSize           = 128
	elasticSeed                 = 42
	elasticRate                 = 1200
	elasticBaseRate             = 1600
	elasticSessions             = 8
)

// ElasticResult is the BENCH_elastic.json payload.
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
func (st *elasticStack) startMembers(p flstore.Placement, firstLId uint64, epoch string) (flstore.MemberSet, error) {
	rig, err := NewRig(RigSpec{
		Maintainers: p.NumMaintainers, Round: p.BatchSize, TCP: true, Gossip: time.Millisecond,
		Member: func(_ int, cfg *flstore.MaintainerConfig) error {
			cfg.FirstLId = firstLId
			// A small burst keeps the capacity model crisp: offering more
			// than the aggregate rate must produce rejects within a fraction
			// of a second, not after draining a deep token bucket.
			cfg.Limiter = ratelimit.New(elasticRate, 32)
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

// start stands the deployment up: old members, controller with admin
// surface, and an orchestrator whose grow factory starts the new member set
// on demand. close releases whatever it got to.
func (st *elasticStack) start() error {
	pOld := flstore.Placement{NumMaintainers: elasticBefore, BatchSize: elasticRound}
	old, err := st.startMembers(pOld, 1, "1")
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
			return st.startMembers(p, firstLId, "2")
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

// sessionBank is a bank of per-session clients that re-poll the
// controller when their epoch is sealed under them — the §5.1 "after
// problems" session refresh. clients[i] belongs to session i's goroutine
// while a phase runs; mu guards everything the sessions share.
type sessionBank struct {
	ctrlAddr string
	clients  []*flstore.Client

	mu          sync.Mutex
	conns       []*rpc.TCPClient
	lids        map[uint64]int
	dups        int
	sealRetries uint64
}

func newSessionBank(ctrlAddr string, n int) (*sessionBank, error) {
	es := &sessionBank{
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

func (es *sessionBank) refresh(i int) error {
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

func (es *sessionBank) close() {
	for _, c := range es.conns {
		c.Close()
	}
}

// op issues one append for session i, refreshing the session on a sealed
// epoch before surfacing the (retryable) error to the engine.
func (es *sessionBank) op(i int, body []byte) error {
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
func runPhase(es *sessionBank, sessions int, rate float64, d time.Duration, seed uint64) scale.Stats {
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

// elastic runs the experiment and writes the BENCH_elastic.json payload.
// The phases last ¾d, 1¼d and ¾d, and the autoscaler observes every d/20,
// firing the switchover after two breaching ticks in a row. The report is
// printed however the run ends, once the autoscaler has ticked.
func elastic(d time.Duration, rep *Report) (err error) {
	res := &ElasticResult{MaintainersBefore: elasticBefore, MaintainersAfter: elasticAfter}
	rep.Data = res
	defer func() {
		if res.AutoscaleTicks > 0 || err == nil {
			rep.Printf("maintainers %d -> %d | boundary LId %d | epochs %d | autoscale ticks %d (grew=%v) | migrated %d records (done=%v) | seal retries %d\n",
				res.MaintainersBefore, res.MaintainersAfter, res.BoundaryLId, res.Epochs,
				res.AutoscaleTicks, res.GrowTriggered, res.RecordsMigrated, res.MigrationDone, res.SealRetries)
			rep.Printf("appends before/during/after %d/%d/%d | p99 %.1f/%.1f/%.1f ms | unique %d dup %d lost %d | p99 bounded %v\n",
				res.AppendsBefore, res.AppendsDuring, res.AppendsAfter,
				res.P99BeforeMs, res.P99DuringMs, res.P99AfterMs,
				res.UniqueLIds, res.DuplicateLIds, res.LostLIds, res.P99Bounded)
		}
		rep.Metric("p99-after-ms", res.P99AfterMs)
		rep.Metric("records-migrated", float64(res.RecordsMigrated))
	}()

	st := &elasticStack{reg: metrics.NewRegistry(), ctrlSrv: rpc.NewServer()}
	defer st.close()
	if err := st.start(); err != nil {
		return err
	}

	// The autoscaler watches the registry and fires the switchover once
	// rejects persist. It runs for the whole experiment; phase A must not
	// trigger it.
	pNew := flstore.Placement{NumMaintainers: elasticAfter, BatchSize: elasticRound}
	as := &autoscaler{
		snapshot: st.reg.Snapshot,
		ticks:    2,
		grow: func() error {
			_, gerr := st.orch.Grow(pNew)
			return gerr
		},
	}
	asCtx, asCancel := context.WithCancel(context.Background())
	asDone := make(chan struct{})
	go func() {
		defer close(asDone)
		// res's autoscale fields are this goroutine's until asDone closes.
		as.run(asCtx, d/20, func(dec autoscaleDecision) {
			res.AutoscaleTicks++
			res.GrowTriggered = res.GrowTriggered || dec.grew
		})
	}()

	es, err := newSessionBank(st.ctrlAddr, elasticSessions)
	if err != nil {
		asCancel()
		<-asDone
		return err
	}
	defer es.close()

	// A ledger violation in any phase voids the run, after the autoscaler
	// has been stopped.
	phase := func(i uint64, rate float64, length time.Duration) LoadStats {
		ls, lerr := loadStats(runPhase(es, elasticSessions, rate, length, elasticSeed+i))
		if err == nil {
			err = lerr
		}
		return ls
	}
	before := phase(0, elasticBaseRate, 3*d/4)
	during := phase(1, 2*elasticBaseRate, 5*d/4)
	after := phase(2, 2*elasticBaseRate, 3*d/4)
	asCancel()
	<-asDone
	if err != nil {
		return err
	}

	if !res.GrowTriggered {
		return errors.New("cluster: autoscaler never triggered the epoch flip")
	}
	if err := st.orch.WaitMigration(); err != nil {
		return err
	}

	// Inspect the epoch journal through the typed admin surface — the
	// same path logctl epochs takes.
	conn, err := rpc.Dial(st.ctrlAddr)
	if err != nil {
		return err
	}
	defer conn.Close()
	admin := flstore.NewAdmin(conn)
	eps, err := admin.Epochs(context.Background())
	if err != nil {
		return err
	}
	res.Epochs = len(eps)
	if len(eps) != 2 {
		return fmt.Errorf("cluster: expected 2 epochs after flip, journal has %d", len(eps))
	}
	res.BoundaryLId = eps[1].FirstLId
	res.MigrationDone = eps[0].MigrationDone
	res.RecordsMigrated = eps[0].RecordsStreamed
	if !res.MigrationDone {
		return errors.New("cluster: migration not complete after WaitMigration")
	}
	if want := res.BoundaryLId - 1; res.RecordsMigrated != want {
		return fmt.Errorf("cluster: migrated %d records, want the whole old epoch (%d)",
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
		return fmt.Errorf("cluster: log integrity broken across flip: %d duplicate, %d lost",
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
	if res.UniqueLIds == 0 || res.AppendsAfter == 0 {
		return fmt.Errorf("cluster: no traffic measured: %d unique LIds, %d appends after the flip",
			res.UniqueLIds, res.AppendsAfter)
	}
	if !res.P99Bounded {
		return fmt.Errorf("cluster: post-flip p99 %.1fms exceeds bound %.1fms (pre-flip %.1fms)",
			res.P99AfterMs, bound, res.P99BeforeMs)
	}
	return nil
}
