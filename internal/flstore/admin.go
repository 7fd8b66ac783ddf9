package flstore

// The typed admin/reconfiguration surface. Admin is the context-first
// client for everything an operator (or the autoscaler's tooling) does to
// a running deployment — configuration, stats, replica status, the epoch
// journal, and epoch proposals: five row calls under one retry loop.
// AdminServer is the server half: the static ControllerAdmin adapter
// serves the journal straight from a Controller, while the Orchestrator
// (elastic.go) serves it with live drain/migration progress and accepts
// proposals that actually drive a switchover.

import (
	"context"
	"errors"
	"time"

	"repro/internal/metrics"
	"repro/internal/replica"
	"repro/internal/rpc"
)

// EpochStatus is one epoch journal entry as reported by the admin
// surface, annotated with switchover progress where the server tracks it
// (an Orchestrator does; a static deployment reports the bare journal).
type EpochStatus struct {
	// Epoch is the entry's position in the journal (0-based).
	Epoch    int    `json:"epoch"`
	FirstLId uint64 `json:"first_lid"`
	// NumMaintainers/BatchSize are the epoch's placement.
	NumMaintainers int    `json:"num_maintainers"`
	BatchSize      uint64 `json:"batch_size"`
	// MaintainerAddrs is the epoch-carried topology (empty when the epoch
	// inherits the deployment's top-level addresses).
	MaintainerAddrs []string `json:"maintainer_addrs,omitempty"`
	// Sealed reports that a later epoch supersedes this one: its owners
	// no longer assign positions.
	Sealed bool `json:"sealed"`
	// Migration progress for a sealed epoch's ranges moving to the next
	// epoch's owners: total ranges, ranges fully streamed, and records
	// migrated so far. Zero for the live epoch and on servers that do not
	// drive migration.
	RangesTotal     int    `json:"ranges_total"`
	RangesStreamed  int    `json:"ranges_streamed"`
	RecordsStreamed uint64 `json:"records_streamed"`
	MigrationDone   bool   `json:"migration_done"`
}

// EpochProposal asks the admin server to announce a new epoch.
type EpochProposal struct {
	// FirstLId is not read: the Orchestrator picks the first round-aligned
	// boundary above every live frontier, since only it sees the frontiers
	// race-free.
	FirstLId uint64 `json:"first_lid,omitempty"`
	// NumMaintainers is the proposed placement width (required).
	NumMaintainers int `json:"num_maintainers"`
	// BatchSize is the proposed placement's batch size; 0 keeps the
	// current epoch's.
	BatchSize uint64 `json:"batch_size,omitempty"`
	// MaintainerAddrs is not read either: the Orchestrator builds the new
	// member set with its grow factory.
	MaintainerAddrs []string `json:"maintainer_addrs,omitempty"`
}

// AdminServer is the server half of the admin surface. ServeAdmin
// registers it; *Orchestrator and *ControllerAdmin implement it.
type AdminServer interface {
	// Epochs reports the epoch journal with any switchover progress.
	Epochs() ([]EpochStatus, error)
	// ProposeEpoch announces (and, on an elastic server, executes) a new
	// epoch, returning its resulting status.
	ProposeEpoch(EpochProposal) (EpochStatus, error)
}

// Admin is the typed, context-first admin client. All methods take a
// context honored before the call and between retries (the underlying
// rpc.Client.Call carries no context, like AppendCtx's transport);
// retryable failures are retried after a short pause.
type Admin struct{ c rpc.Client }

// A retryable admin call is retried adminRetries times, adminBackoff apart.
const (
	adminRetries = 2
	adminBackoff = 25 * time.Millisecond
)

// NewAdmin wraps an rpc.Client connected to a controller endpoint (one
// running ServeController/ServeStats/ServeReplicas/ServeAdmin) as the
// typed admin surface.
func NewAdmin(c rpc.Client) *Admin { return &Admin{c: c} }

// adminCall runs one admin RPC under the retry policy.
func adminCall[Q, R any](ctx context.Context, a *Admin, row *rpc.Message[Q, R], q Q) (R, error) {
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			var zero R
			return zero, err
		}
		r, err := row.Call(a.c, q)
		if err == nil || attempt >= adminRetries || !IsRetryable(err) {
			return r, err
		}
		if serr := sleepCtx(ctx, adminBackoff); serr != nil {
			return r, serr
		}
	}
}

// Config returns the deployment configuration (placement, topology,
// epoch journal, replication policy).
func (a *Admin) Config(ctx context.Context) (*Config, error) {
	return adminCall(ctx, a, &rowGetConfig, none{})
}

// Stats returns a snapshot of the server's metrics registry.
func (a *Admin) Stats(ctx context.Context) (metrics.Snapshot, error) {
	return adminCall(ctx, a, &rowStats, none{})
}

// Replicas returns the replica-group status view.
func (a *Admin) Replicas(ctx context.Context) (*replica.ClusterStatus, error) {
	return adminCall(ctx, a, &rowReplicas, none{})
}

// Epochs returns the epoch journal with per-epoch switchover progress.
func (a *Admin) Epochs(ctx context.Context) ([]EpochStatus, error) {
	return adminCall(ctx, a, &rowAdminEpochs, none{})
}

// ProposeEpoch submits an epoch proposal and returns the new epoch's
// status. On an elastic server this drives the full switchover (seal,
// drain, pad, migration kick-off) before returning.
func (a *Admin) ProposeEpoch(ctx context.Context, prop EpochProposal) (EpochStatus, error) {
	return adminCall(ctx, a, &rowAdminPropose, prop)
}

// ServeAdmin registers the epoch-journal and proposal handlers on srv.
func ServeAdmin(srv *rpc.Server, a AdminServer) {
	rowAdminEpochs.Serve(srv, rpc.NoArg(a.Epochs))
	rowAdminPropose.Serve(srv, a.ProposeEpoch)
}

// ControllerAdmin serves the admin surface straight from a Controller for
// static deployments (no orchestrator): Epochs is the bare journal, and
// ProposeEpoch is refused.
type ControllerAdmin struct {
	Ctrl *Controller
}

// Epochs implements AdminServer from the controller's journal.
func (ca *ControllerAdmin) Epochs() ([]EpochStatus, error) {
	cfg, err := ca.Ctrl.GetConfig()
	if err != nil {
		return nil, err
	}
	return epochStatuses(cfg), nil
}

// epochStatuses renders a config's journal as bare statuses (no
// migration progress).
func epochStatuses(cfg *Config) []EpochStatus {
	out := make([]EpochStatus, len(cfg.Epochs))
	for i, e := range cfg.Epochs {
		out[i] = EpochStatus{
			Epoch:           i,
			FirstLId:        e.FirstLId,
			NumMaintainers:  e.Placement.NumMaintainers,
			BatchSize:       e.Placement.BatchSize,
			MaintainerAddrs: e.MaintainerAddrs,
			Sealed:          i < len(cfg.Epochs)-1,
		}
	}
	return out
}

// ProposeEpoch implements AdminServer by refusing: nothing in a static
// deployment seals the serving owners at a boundary, and journalling an
// epoch over unsealed owners lets both epochs acknowledge the same LIds.
func (ca *ControllerAdmin) ProposeEpoch(prop EpochProposal) (EpochStatus, error) {
	return EpochStatus{}, errors.New("flstore: a static deployment cannot switch epochs; " +
		"grow through an Orchestrator served by ServeAdmin, which seals the old owners first")
}
