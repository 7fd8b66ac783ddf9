// Package storage implements the persistence substrate of a log
// maintainer: an append-only, segment-file store of log records keyed by
// LId, with checksummed entries, torn-write recovery, and garbage
// collection below a durable bound.
//
// A maintainer owns sparse, deterministic ranges of the datacenter's log
// (round-robin rounds of BatchSize positions, §5.2), so the store indexes
// records by LId rather than assuming contiguity: entries are written in
// arrival order and an in-memory paged index maps LId → (segment, offset).
package storage

import (
	"errors"
	"sync"

	"repro/internal/core"
)

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("storage: store is closed")

// ErrDuplicate is returned when appending a record whose LId is already
// present. Log records are immutable; a duplicate append is a protocol
// error upstream.
var ErrDuplicate = errors.New("storage: duplicate LId")

// Store is the persistence interface a log maintainer programs against.
// Implementations must be safe for concurrent use.
type Store interface {
	// Append durably adds a record (the record must carry a nonzero
	// LId). Appending an LId that already exists fails with
	// ErrDuplicate.
	Append(r *core.Record) error
	// AppendBatch adds many records with one durability point.
	AppendBatch(rs []*core.Record) error
	// Get returns the record at lid, or core.ErrNoSuchRecord.
	Get(lid uint64) (*core.Record, error)
	// Scan calls fn for each stored record with minLId ≤ LId ≤ maxLId
	// (maxLId 0 = unbounded) in ascending LId order; fn returning false
	// stops the scan.
	Scan(minLId, maxLId uint64, fn func(*core.Record) bool) error
	// MaxLId returns the highest LId stored, or 0 if empty.
	MaxLId() uint64
	// Len returns the number of stored records.
	Len() int
	// GC collects every record with LId ≤ upTo and returns how many it
	// dropped: from then on Get and Scan answer those positions as absent,
	// appends at or below the bound fail, and a reopened store keeps the
	// bound. Disk space may come back coarser (whole segments). covered is
	// the caller's account of the whole collected prefix — per host, the
	// highest TOId at or below upTo — which the store keeps with the bound,
	// so that numbering per host survives the records that carried it.
	GC(upTo uint64, covered []core.Dep) (int, error)
	// Collected returns the collected bound — the highest upTo GC was
	// given, 0 before the first collection — and the covered list given
	// with it. The list is shared: callers must not modify it.
	Collected() (uint64, []core.Dep)
	// Close releases resources; further operations fail with ErrClosed.
	Close() error
}

// MemStore is an in-memory Store used by simulations, on the same LId
// index as the segment store with the records themselves as its slots.
type MemStore struct {
	mu     sync.RWMutex
	index  table[*core.Record]
	closed bool
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{} }

// Append implements Store.
func (s *MemStore) Append(r *core.Record) error {
	return s.AppendBatch([]*core.Record{r})
}

// AppendBatch implements Store.
func (s *MemStore) AppendBatch(rs []*core.Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.index.admit(rs); err != nil {
		return err
	}
	for _, r := range rs {
		s.index.set(r.LId, r)
	}
	return nil
}

// Get implements Store.
func (s *MemStore) Get(lid uint64) (*core.Record, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	if r := s.index.get(lid); r != nil {
		return r, nil
	}
	return nil, core.ErrNoSuchRecord
}

// Scan implements Store. fn runs without the lock held, on a chunk of the
// index copied out under it.
func (s *MemStore) Scan(minLId, maxLId uint64, fn func(*core.Record) bool) error {
	chunk := make([]*core.Record, 0, scanChunk)
	for next := max(minLId, 1); next != 0; {
		s.mu.RLock()
		if s.closed {
			s.mu.RUnlock()
			return ErrClosed
		}
		chunk, next = s.index.window(chunk[:0], next, maxLId)
		s.mu.RUnlock()
		for _, r := range chunk {
			if !fn(r) {
				return nil
			}
		}
	}
	return nil
}

// MaxLId implements Store.
func (s *MemStore) MaxLId() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.index.max
}

// Len implements Store.
func (s *MemStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.index.n
}

// GC implements Store.
func (s *MemStore) GC(upTo uint64, covered []core.Dep) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	return s.index.prune(upTo, covered), nil
}

// Collected implements Store.
func (s *MemStore) Collected() (uint64, []core.Dep) { return s.index.bound() }

// Close implements Store.
func (s *MemStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}
