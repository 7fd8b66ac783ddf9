package flstore

// Orchestrator drives live elasticity (§6.3) end-to-end: given a new
// placement it computes a round-aligned future boundary, seals the old
// owners at it, constructs the new member set, announces the epoch
// (journal + topology), drains the old owners, pads their ranges dense to
// the boundary, and streams the old epoch's records to the new owners in
// the background.
// It implements AdminServer, so Admin.ProposeEpoch against an elastic
// deployment performs an actual switchover.

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/replica"
)

// RangePuller is the slice of the replica surface migration needs: a
// catch-up feed of one hosted range. *Maintainer and the RPC maintainer
// client both satisfy it.
type RangePuller interface {
	PullRange(rangeIdx int, fromLId uint64, limit int) ([]*core.Record, error)
}

// MemberSet is one epoch's maintainers with their advertised endpoints
// (index-aligned with the epoch's placement; Addrs may be nil for pure
// in-process deployments).
type MemberSet struct {
	Maintainers []*Maintainer
	Addrs       []string
}

// OrchestratorConfig wires an Orchestrator.
type OrchestratorConfig struct {
	// Controller serves (and journals) the deployment configuration.
	Controller *Controller
	// Current is the serving member set of the latest epoch.
	Current MemberSet
	// Replication is the replica-group size R of the deployment (0 and 1
	// both mean unreplicated). Pad records fan out to follower copies so
	// group peers stay gap-free through a switchover.
	Replication int
	// Grow constructs and starts the next epoch's member set: maintainers
	// built with FirstLId = firstLId under placement p, already serving
	// (listening, gossiping) by the time it returns.
	Grow func(p Placement, firstLId uint64) (MemberSet, error)
	// DrainWait is how long sealed owners wait for in-flight appends
	// before padding (default 20ms).
	DrainWait time.Duration
	// MigrateBatch caps each migration pull (default 256, the catch-up
	// batch size).
	MigrateBatch int
	// PullSources overrides where the migration of one old range pulls
	// from, in failover-preference order. Nil uses the old replica group
	// (owner first). Fault-injection tests substitute flaky sources here.
	PullSources func(oldRange int) []RangePuller
}

// epochMigration tracks one sealed epoch's background migration.
type epochMigration struct {
	firstLId        uint64 // boundary the epoch was sealed at (next epoch's first LId)
	rangesTotal     int
	rangesStreamed  int
	recordsStreamed uint64
	err             error
}

// Orchestrator executes epoch switchovers and serves the admin surface
// for an elastic deployment.
type Orchestrator struct {
	mu      sync.Mutex
	cfg     OrchestratorConfig
	current MemberSet
	history []epochMigration // index-aligned with sealed epochs, oldest first
	wg      sync.WaitGroup
}

// NewOrchestrator validates the wiring and returns an orchestrator over
// the current member set.
func NewOrchestrator(cfg OrchestratorConfig) (*Orchestrator, error) {
	if cfg.Controller == nil {
		return nil, errors.New("flstore: orchestrator needs a controller")
	}
	if len(cfg.Current.Maintainers) == 0 {
		return nil, errors.New("flstore: orchestrator needs the current member set")
	}
	if cfg.DrainWait <= 0 {
		cfg.DrainWait = 20 * time.Millisecond
	}
	if cfg.MigrateBatch <= 0 {
		cfg.MigrateBatch = 256
	}
	if cfg.Replication < 1 {
		cfg.Replication = 1
	}
	return &Orchestrator{cfg: cfg, current: cfg.Current}, nil
}

// Current returns the serving member set of the latest epoch.
func (o *Orchestrator) Current() MemberSet {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.current
}

// gcd/lcm over uint64 for round-length alignment.
func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcm(a, b uint64) uint64 { return a / gcd(a, b) * b }

// boundaryFor picks the first LId of the next epoch: round-aligned under
// BOTH placements (so every old range pads closed exactly at it and every
// new range starts on a whole round) and headroomRounds common rounds
// (lcm of both epochs' round lengths) above the highest live frontier,
// giving in-flight appends room to land.
func (o *Orchestrator) boundaryFor(oldP, newP Placement, old MemberSet) uint64 {
	rl := lcm(uint64(oldP.NumMaintainers)*oldP.BatchSize,
		uint64(newP.NumMaintainers)*newP.BatchSize)
	// The boundary must clear what is assigned, not merely what is stored:
	// a batch still in its commit tail already owns its slots.
	var maxNext uint64 = 1
	for _, m := range old.Maintainers {
		m.mu.Lock()
		if n := m.nextAssignedLocked(); n > maxNext {
			maxNext = n
		}
		m.mu.Unlock()
	}
	const headroomRounds = 1
	rounds := (maxNext-1+rl-1)/rl + headroomRounds // ceil to a common round, plus headroom
	return rounds*rl + 1
}

// sealAttempts bounds how often Grow re-picks a boundary that live appends
// outran between the pick and the seal.
const sealAttempts = 3

// seal picks the boundary and seals every old owner at it, back to back, so
// the seals land inside the boundary's headroom. An owner whose frontier
// already passed the pick refuses its seal; the boundary is then re-picked
// above every frontier and all owners resealed (SealAt raises an unpadded
// seal).
func (o *Orchestrator) seal(oldP, newP Placement, old MemberSet) (uint64, error) {
	var err error
	for range sealAttempts {
		firstLId := o.boundaryFor(oldP, newP, old)
		for i, m := range old.Maintainers {
			if err = m.SealAt(firstLId); err != nil {
				err = fmt.Errorf("flstore: sealing maintainer %d: %w", i, err)
				break
			}
		}
		if err == nil {
			return firstLId, nil
		}
	}
	return 0, err
}

// Grow switches the deployment to a new placement: seal, construct,
// announce, drain, pad, and kick off background migration. It returns once
// the old epoch is dense up to the boundary and the new epoch is serving;
// migration of old records proceeds asynchronously (track with Epochs /
// WaitMigration). A Grow that fails before the announce leaves the journal
// unchanged and the old epoch unsealed.
func (o *Orchestrator) Grow(newP Placement) (EpochStatus, error) {
	if err := newP.Validate(); err != nil {
		return EpochStatus{}, err
	}
	o.mu.Lock()
	if o.cfg.Grow == nil {
		o.mu.Unlock()
		return EpochStatus{}, errors.New("flstore: orchestrator has no grow factory")
	}
	old := o.current
	oldP := old.Maintainers[0].cfg.Placement
	o.mu.Unlock()

	// Seal before anything is journalled: a boundary picked first and sealed
	// after the (slow) build can be outrun by live appends, and the journal
	// would then advertise a switchover that never happened. Appends that
	// reach the cap meanwhile fail with EpochSealedError until the announce;
	// a failure before it hands the log back to the old epoch.
	announced := false
	defer func() {
		if !announced {
			for _, m := range old.Maintainers {
				m.unseal()
			}
		}
	}()
	firstLId, err := o.seal(oldP, newP, old)
	if err != nil {
		return EpochStatus{}, err
	}

	// Construct the new set before announcing: the journal must never
	// advertise an epoch nobody serves.
	next, err := o.cfg.Grow(newP, firstLId)
	if err != nil {
		return EpochStatus{}, fmt.Errorf("flstore: growing member set: %w", err)
	}
	if len(next.Maintainers) != newP.NumMaintainers {
		return EpochStatus{}, fmt.Errorf("flstore: grow factory returned %d maintainers for placement of %d",
			len(next.Maintainers), newP.NumMaintainers)
	}
	if err := o.cfg.Controller.AnnounceEpochTopology(firstLId, newP, next.Addrs); err != nil {
		return EpochStatus{}, err
	}
	announced = true

	// Give in-flight appends a drain window, then pad each range dense to
	// the boundary. Pads fan out to follower copies so the old groups stay
	// mutually consistent for reads and for migration pulls from any group
	// member.
	time.Sleep(o.cfg.DrainWait)
	layout := replica.Layout{N: oldP.NumMaintainers, R: o.cfg.Replication}
	for i, m := range old.Maintainers {
		pads, err := m.Pad()
		if err != nil {
			return EpochStatus{}, fmt.Errorf("flstore: padding maintainer %d: %w", i, err)
		}
		if len(pads) == 0 || o.cfg.Replication <= 1 {
			continue
		}
		for _, peer := range layout.Group(i).Members[1:] {
			if err := old.Maintainers[peer].ReplicaAppend(pads); err != nil {
				return EpochStatus{}, fmt.Errorf("flstore: fanning pads of range %d to %d: %w", i, peer, err)
			}
		}
	}

	// Hand the old ranges to their migration targets (old range j lands
	// on new maintainer j mod N') and stream them in the background.
	targets := make(map[int][]int) // new maintainer index -> old ranges
	for j := 0; j < oldP.NumMaintainers; j++ {
		t := j % newP.NumMaintainers
		targets[t] = append(targets[t], j)
	}
	for t, ranges := range targets {
		if err := next.Maintainers[t].HostMigrated(oldP, ranges); err != nil {
			return EpochStatus{}, fmt.Errorf("flstore: migrated ranges on new maintainer %d: %w", t, err)
		}
	}

	o.mu.Lock()
	o.current = next
	o.history = append(o.history, epochMigration{
		firstLId:    firstLId,
		rangesTotal: oldP.NumMaintainers,
	})
	mig := len(o.history) - 1
	o.mu.Unlock()

	for j := 0; j < oldP.NumMaintainers; j++ {
		j := j
		target := next.Maintainers[j%newP.NumMaintainers]
		sources := o.sourcesFor(j, old, layout)
		o.wg.Add(1)
		go func() {
			defer o.wg.Done()
			o.migrateRange(mig, j, target, sources)
		}()
	}

	ca := &ControllerAdmin{Ctrl: o.cfg.Controller}
	sts, err := ca.Epochs()
	if err != nil {
		return EpochStatus{}, err
	}
	return sts[len(sts)-1], nil
}

// sourcesFor orders the pull sources for one old range: the override if
// configured, else the old replica group, owner first.
func (o *Orchestrator) sourcesFor(oldRange int, old MemberSet, layout replica.Layout) []RangePuller {
	if o.cfg.PullSources != nil {
		return o.cfg.PullSources(oldRange)
	}
	g := layout.Group(oldRange)
	sources := make([]RangePuller, 0, len(g.Members))
	for _, m := range g.Members {
		sources = append(sources, old.Maintainers[m])
	}
	return sources
}

// migrateRange streams one old range into its target until the target
// reports it complete, failing over across sources on pull errors. The
// ingest side is idempotent and dense-prefix, so re-pulling after a
// failover (or a restart) is harmless.
func (o *Orchestrator) migrateRange(mig, oldRange int, target *Maintainer, sources []RangePuller) {
	src := 0
	for {
		cursor, done, err := target.MigratedFrontier(oldRange)
		if err != nil {
			o.failMigration(mig, fmt.Errorf("flstore: migration frontier of range %d: %w", oldRange, err))
			return
		}
		if done {
			o.mu.Lock()
			o.history[mig].rangesStreamed++
			o.mu.Unlock()
			return
		}
		recs, err := sources[src].PullRange(oldRange, cursor, o.cfg.MigrateBatch)
		if err == nil && len(recs) == 0 {
			// The source's copy ends below the padded cap (a follower that
			// missed the pad fan-out): treat like a source failure.
			err = fmt.Errorf("flstore: source %d of range %d dry at LId %d", src, oldRange, cursor)
		}
		if err != nil {
			src++
			if src >= len(sources) {
				o.failMigration(mig, fmt.Errorf("flstore: every source of range %d failed: %w", oldRange, err))
				return
			}
			continue
		}
		if err := target.IngestMigrated(recs); err != nil {
			o.failMigration(mig, fmt.Errorf("flstore: ingesting range %d: %w", oldRange, err))
			return
		}
		o.mu.Lock()
		o.history[mig].recordsStreamed += uint64(len(recs))
		o.mu.Unlock()
	}
}

// failMigration records the first migration error of a sealed epoch.
func (o *Orchestrator) failMigration(mig int, err error) {
	o.mu.Lock()
	if o.history[mig].err == nil {
		o.history[mig].err = err
	}
	o.mu.Unlock()
}

// WaitMigration blocks until every background migration goroutine has
// finished and returns the first error any of them hit.
func (o *Orchestrator) WaitMigration() error {
	o.wg.Wait()
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, h := range o.history {
		if h.err != nil {
			return h.err
		}
	}
	return nil
}

// Epochs implements AdminServer: the controller's journal annotated with
// live migration progress for sealed epochs.
func (o *Orchestrator) Epochs() ([]EpochStatus, error) {
	cfg, err := o.cfg.Controller.GetConfig()
	if err != nil {
		return nil, err
	}
	sts := epochStatuses(cfg)
	o.mu.Lock()
	defer o.mu.Unlock()
	for i := range sts {
		if !sts[i].Sealed || i >= len(o.history) {
			continue
		}
		h := o.history[i]
		sts[i].RangesTotal = h.rangesTotal
		sts[i].RangesStreamed = h.rangesStreamed
		sts[i].RecordsStreamed = h.recordsStreamed
		sts[i].MigrationDone = h.rangesStreamed >= h.rangesTotal
	}
	return sts, nil
}

// ProposeEpoch implements AdminServer: a proposal against an elastic
// deployment executes the switchover (the orchestrator picks the
// boundary and builds the member set; the proposal's FirstLId and
// MaintainerAddrs are ignored).
func (o *Orchestrator) ProposeEpoch(prop EpochProposal) (EpochStatus, error) {
	o.mu.Lock()
	cur := o.current.Maintainers[0].cfg.Placement
	o.mu.Unlock()
	p := Placement{NumMaintainers: prop.NumMaintainers, BatchSize: prop.BatchSize}
	if p.BatchSize == 0 {
		p.BatchSize = cur.BatchSize
	}
	return o.Grow(p)
}
