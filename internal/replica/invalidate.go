package replica

import (
	"fmt"
	"time"
)

// Invalidator is the optional invalidation surface of a Member. A member
// that implements it participates in Hermes-style invalidation
// replication: each replica copy it receives announces the batch's
// assignment (range plus exclusive upper LId bound) on arrival, before the
// member stores or refuses it, so the member knows which positions exist
// before it holds their bytes. Positions that are announced but not yet
// resolved locally are *invalid* — a member must not answer reads for them
// with "no such record"; it blocks briefly for the payload or tells the
// caller to retry. Invalidate is the standalone announcement catch-up
// replays. Members that do not implement Invalidator keep the
// failover-only behavior.
type Invalidator interface {
	// Invalidate announces that every position of rangeIdx strictly below
	// upTo has been assigned by the range's acting primary. Idempotent and
	// monotone: stale or duplicate announcements are no-ops.
	Invalidate(rangeIdx int, upTo uint64) error
}

// WatermarkReporter is the optional status surface of an invalidating
// member: the validity watermark (the dense-prefix frontier LId — every
// position below it is resolved and served locally) and the announced
// assignment bound for a hosted range. The span between the two is the
// member's invalidation backlog.
type WatermarkReporter interface {
	ValidityWatermark(rangeIdx int) (watermark, announced uint64, err error)
}

// ReadPolicy orders the members of a replica group for one read. Pick
// returns the member index to try at attempt k (0 ≤ k < l.R) against
// rangeIdx's group; token is drawn once per read, so a policy that
// spreads load still presents a stable failover order within a single
// read. Implementations must be allocation-free and safe for concurrent
// use — Pick sits on the per-RPC read path.
type ReadPolicy interface {
	Pick(l Layout, rangeIdx, k int, token uint64) int
}

// ownerFirst is the PR-3 default: owner, then followers in group order.
type ownerFirst struct{}

func (ownerFirst) Pick(l Layout, rangeIdx, k int, _ uint64) int {
	return (rangeIdx + k) % l.N
}

// OwnerFirst returns the default read policy: the range owner first, then
// the followers in group order. Reads concentrate on owners but never pay
// a watermark wait while the owner is healthy.
func OwnerFirst() ReadPolicy { return ownerFirst{} }

// spreadReads rotates the starting member by a per-read token.
type spreadReads struct{}

func (spreadReads) Pick(l Layout, rangeIdx, k int, token uint64) int {
	return (rangeIdx + (int(token%uint64(l.R))+k)%l.R) % l.N
}

// SpreadReads returns a policy that rotates each read's starting member
// across the whole group, spreading read load over all R valid replicas —
// the policy that converts replication factor into aggregate read
// throughput once invalidations keep followers readable.
func SpreadReads() ReadPolicy { return spreadReads{} }

// nearestFirst serves each range from the cheapest member by a static
// cost function, falling back in ascending-cost order.
type nearestFirst struct {
	order [][]int // order[rangeIdx][k] = member index of the k-th cheapest
}

func (p *nearestFirst) Pick(l Layout, rangeIdx, k int, _ uint64) int {
	return p.order[rangeIdx][k]
}

// NearestFirst returns a proximity policy: for each range, group members
// sorted by cost(member) ascending (ties broken in group order, so the
// owner wins ties). cost models datacenter distance — a multi-DC
// deployment passes RTT classes and every read lands on the local
// replica unless it is evicted or invalid.
func NearestFirst(l Layout, cost func(member int) int) (ReadPolicy, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	if cost == nil {
		return nil, fmt.Errorf("replica: NearestFirst requires a cost function")
	}
	p := &nearestFirst{order: make([][]int, l.N)}
	for r := 0; r < l.N; r++ {
		order := make([]int, l.R)
		for k := range order {
			order[k] = (r + k) % l.N
		}
		// Insertion sort by cost; R is small and stability keeps the
		// owner ahead of equal-cost followers.
		for i := 1; i < len(order); i++ {
			for j := i; j > 0 && cost(order[j]) < cost(order[j-1]); j-- {
				order[j], order[j-1] = order[j-1], order[j]
			}
		}
		p.order[r] = order
	}
	return p, nil
}

// ackRetryHint is the pacing hint attached to under-acked appends: long
// enough for a follower hiccup to clear, short enough that AIMD pacing —
// not this constant — governs sustained backoff.
const ackRetryHint = 2 * time.Millisecond

// AckError is the typed form of ErrInsufficientAcks: the append's records
// are durably assigned at the acting primary, but fewer members than the
// ack policy requires confirmed copies. It unwraps to ErrInsufficientAcks
// for errors.Is, self-classifies as retryable, and carries a pacing hint
// so client retry loops (flstore.RetryAfter, PR-5 AIMD pacing) back off
// instead of hammering a degraded group.
type AckError struct {
	Acked, Required int
	Range           int
	RetryAfter      time.Duration
}

func (e *AckError) Error() string {
	return fmt.Sprintf("%v: %d of %d (range %d)", ErrInsufficientAcks, e.Acked, e.Required, e.Range)
}

func (e *AckError) Unwrap() error { return ErrInsufficientAcks }

// Retryable marks the error transient: the records exist, a retry is an
// idempotent re-replication attempt.
func (e *AckError) Retryable() bool { return true }

// RetryAfterHint returns the suggested pause before retrying.
func (e *AckError) RetryAfterHint() time.Duration { return e.RetryAfter }
