// Package replica adds intra-datacenter fault tolerance to FLStore's log
// maintainers: every deterministic LId range is hosted by a k-way replica
// group instead of a single machine. Group membership is itself a pure
// function of the placement (range i is replicated on maintainers
// i, i+1, …, i+R−1 mod N), so clients compute replica locations with no
// lookup service — the same property that lets FLStore drop the sequencer.
//
// The package is deliberately below flstore in the import graph: it defines
// its own Member interface (implemented by *flstore.Maintainer and by the
// flstore RPC client) and never imports flstore, so flstore can embed
// replica types in its configuration and client.
//
// What this is not: a consensus protocol. Replica groups here inherit the
// paper's crash-stop model — position assignment stays with one acting
// primary per range at a time, the ack policy controls how many copies
// exist before an append is acknowledged, and failover adopts the largest
// replicated frontier among live members. Under AckMajority two live
// members of a 3-group always intersect in at least one holder of every
// acknowledged record, which is what the catch-up protocol relies on.
//
// Reads follow the Hermes model (invalidation-based, broadcast-write
// replication): the copy the session fans out to each group member
// carries its batch's assignment announcement (Invalidator), every member
// derives a validity watermark from its dense-prefix frontier, and any
// member serves reads below its watermark locally — no owner round trip.
// Reads between the watermark and the announced bound are *invalid* at
// that member: they block briefly for the copy's store, then fail over to
// a fresher replica via a retryable error. Which member a read tries
// first is a pluggable ReadPolicy (owner-first, load-spreading, or
// proximity-ordered), so replication factor multiplies aggregate read
// throughput instead of only buying failover.
package replica

import (
	"fmt"
	"strings"
)

// Layout describes the replica-group shape of one placement: N maintainers,
// each LId range replicated on R consecutive members (wrapping). R = 1
// degenerates to the unreplicated system.
type Layout struct {
	N int // maintainers in the placement
	R int // copies of every range (replication factor)
}

// Validate reports whether the layout parameters are usable.
func (l Layout) Validate() error {
	if l.N < 1 {
		return fmt.Errorf("replica: N must be >= 1, got %d", l.N)
	}
	if l.R < 1 {
		return fmt.Errorf("replica: R must be >= 1, got %d", l.R)
	}
	if l.R > l.N {
		return fmt.Errorf("replica: R (%d) exceeds maintainer count (%d)", l.R, l.N)
	}
	return nil
}

// Group is the replica set of one LId range. Members are maintainer
// indices in failover-preference order: Members[0] is the range owner (the
// preferred primary, identical to Placement.Owner), and on its failure the
// acting-primary role falls to the next live member in order.
type Group struct {
	Range   int
	Members []int
}

// Group returns the replica group of rangeIdx (the maintainer index that
// owns the range in the unreplicated placement).
func (l Layout) Group(rangeIdx int) Group {
	members := make([]int, l.R)
	for k := 0; k < l.R; k++ {
		members[k] = (rangeIdx + k) % l.N
	}
	return Group{Range: rangeIdx, Members: members}
}

// Hosts returns the ranges maintainer m stores, in decreasing preference:
// its own range first, then the ranges it follows (m−1, m−2, … mod N).
func (l Layout) Hosts(m int) []int {
	ranges := make([]int, l.R)
	for k := 0; k < l.R; k++ {
		ranges[k] = ((m-k)%l.N + l.N) % l.N
	}
	return ranges
}

// Replicas reports whether maintainer m hosts rangeIdx (as owner or
// follower).
func (l Layout) Replicas(m, rangeIdx int) bool {
	d := ((m-rangeIdx)%l.N + l.N) % l.N
	return d < l.R
}

// AckPolicy selects how many replica-group members must durably hold an
// append before it is acknowledged to the application.
type AckPolicy int

const (
	// AckOne acknowledges after the acting primary alone persists the
	// batch (lowest latency; an unlucky crash loses the tail).
	AckOne AckPolicy = iota
	// AckMajority acknowledges after ⌈(R+1)/2⌉ members persist — the
	// smallest count whose groups always intersect, so any live majority
	// holds every acknowledged record.
	AckMajority
	// AckAll acknowledges only when every group member holds the batch
	// (strongest durability; one dead member blocks appends to the group).
	AckAll
)

// Required returns the number of members that must ack under the policy
// for a group of r copies.
func (p AckPolicy) Required(r int) int {
	switch p {
	case AckOne:
		return 1
	case AckAll:
		return r
	default:
		return r/2 + 1
	}
}

// String implements fmt.Stringer.
func (p AckPolicy) String() string {
	switch p {
	case AckOne:
		return "one"
	case AckAll:
		return "all"
	default:
		return "majority"
	}
}

// ParseAckPolicy parses "one", "majority", or "all".
func ParseAckPolicy(s string) (AckPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "one", "1":
		return AckOne, nil
	case "majority", "quorum":
		return AckMajority, nil
	case "all":
		return AckAll, nil
	}
	return AckMajority, fmt.Errorf("replica: unknown ack policy %q (want one|majority|all)", s)
}
