package flstore

import (
	"slices"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/ratelimit"
)

// Indexer is one partition of the distributed index of §5.3. Tag keys are
// hash-partitioned across indexers (IndexerFor); each indexer stores, per
// key, the posting list of (value, LId) pairs sorted by LId, and answers
// lookups with optional value predicates, LId bounds, and most-recent-N
// semantics.
type Indexer struct {
	mu       sync.RWMutex
	postings map[string][]Posting // per key, ascending LId
	limiter  *ratelimit.Limiter
}

// NewIndexer returns an empty indexer. limiter models the machine's
// capacity (nil = unlimited).
func NewIndexer(limiter *ratelimit.Limiter) *Indexer {
	return &Indexer{postings: make(map[string][]Posting), limiter: limiter}
}

// Post implements IndexerAPI.
func (ix *Indexer) Post(entries []Posting) error {
	if len(entries) == 0 {
		return nil
	}
	if !ix.limiter.Allow(len(entries)) {
		return ErrOverloaded
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for _, e := range entries {
		list := ix.postings[e.Key]
		// Fast path: appends usually arrive in ascending LId order.
		if n := len(list); n == 0 || list[n-1].LId < e.LId {
			ix.postings[e.Key] = append(list, e)
			continue
		}
		// Out-of-order insert (different maintainers progress at
		// different speeds): binary-insert to keep the list sorted.
		i := sort.Search(len(list), func(i int) bool { return list[i].LId >= e.LId })
		if i < len(list) && list[i].LId == e.LId {
			continue // duplicate posting; idempotent
		}
		list = append(list, Posting{})
		copy(list[i+1:], list[i:])
		list[i] = e
		ix.postings[e.Key] = list
	}
	return nil
}

// Lookup implements IndexerAPI.
func (ix *Indexer) Lookup(q LookupQuery) ([]uint64, error) {
	ix.mu.RLock()
	list := ix.postings[q.Key]
	// Copy under lock; filtering happens outside.
	window := make([]Posting, len(list))
	copy(window, list)
	ix.mu.RUnlock()

	var lids []uint64
	match := func(p Posting) bool {
		if q.MaxLIdExclusive != 0 && p.LId >= q.MaxLIdExclusive {
			return false
		}
		if q.Cmp != core.CmpAny {
			probe := core.Record{Tags: []core.Tag{{Key: q.Key, Value: p.Value}}}
			rule := core.Rule{TagKey: q.Key, TagCmp: q.Cmp, TagValue: q.Value}
			if !rule.Match(&probe) {
				return false
			}
		}
		return true
	}
	if q.MostRecent {
		for i := len(window) - 1; i >= 0; i-- {
			if match(window[i]) {
				lids = append(lids, window[i].LId)
				if q.Limit > 0 && len(lids) == q.Limit {
					break
				}
			}
		}
	} else {
		for _, p := range window {
			if match(p) {
				lids = append(lids, p.LId)
				if q.Limit > 0 && len(lids) == q.Limit {
					break
				}
			}
		}
	}
	return lids, nil
}

// prune drops the postings of every LId at or below upTo, a collected
// prefix of the log (Maintainer.Trim).
func (ix *Indexer) prune(upTo uint64) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for key, list := range ix.postings {
		switch i := sort.Search(len(list), func(i int) bool { return list[i].LId > upTo }); {
		case i == len(list):
			delete(ix.postings, key)
		case i > 0:
			ix.postings[key] = slices.Clone(list[i:])
		}
	}
}

// Keys returns the number of distinct tag keys indexed (introspection).
func (ix *Indexer) Keys() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.postings)
}
