// Package sequencer implements the CORFU-style shared log the paper uses
// as its point of comparison (§2.1, §5.2): a client-driven protocol where a
// centralized sequencer pre-assigns log positions and clients then write
// records directly to the storage unit owning each position.
//
// The sequencer is off the data path — it hands out offsets, not data — so
// the log's aggregate throughput exceeds one machine's I/O bandwidth. But
// every append still costs one sequencer interaction, so total throughput
// plateaus at the sequencer's request rate no matter how many storage
// units are added. FLStore's post-assignment removes exactly this
// bottleneck; the ablation bench puts the two side by side.
package sequencer

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/ratelimit"
	"repro/internal/storage"
)

// ErrSequencerOverloaded is returned when the sequencer's capacity limiter
// rejects a reservation — the saturation regime of the baseline.
var ErrSequencerOverloaded = errors.New("sequencer: overloaded")

// ErrUnitOverloaded is returned when a storage unit's limiter rejects a
// write.
var ErrUnitOverloaded = errors.New("sequencer: storage unit overloaded")

// Sequencer is the centralized position-assignment service. It is a single
// logical machine: one counter behind one capacity limiter.
type Sequencer struct {
	next    atomic.Uint64
	limiter *ratelimit.Limiter

	// Issued counts positions handed out (instrumentation).
	Issued metrics.Counter
	// Rejected counts reservations refused at saturation.
	Rejected metrics.Counter
}

// NewSequencer returns a sequencer whose request capacity is bounded by
// limiter (nil = unlimited).
func NewSequencer(limiter *ratelimit.Limiter) *Sequencer {
	return &Sequencer{limiter: limiter}
}

// Next reserves n consecutive log positions and returns the first. Each
// call is one sequencer interaction regardless of n, which is why CORFU
// clients batch; the evaluation's clients use n=1 to match the paper's
// per-record append costs.
func (s *Sequencer) Next(n int) (uint64, error) {
	if n <= 0 {
		return 0, fmt.Errorf("sequencer: invalid reservation size %d", n)
	}
	if !s.limiter.Allow(1) {
		s.Rejected.Inc()
		return 0, ErrSequencerOverloaded
	}
	end := s.next.Add(uint64(n))
	s.Issued.Add(uint64(n))
	return end - uint64(n) + 1, nil
}

// Tail returns the next unissued position (the current log tail + 1).
func (s *Sequencer) Tail() uint64 { return s.next.Load() + 1 }

// StorageUnit is one flash-unit-like store: it accepts writes at
// pre-assigned positions and serves reads. Unlike an FLStore maintainer it
// performs no position assignment.
type StorageUnit struct {
	mu      sync.Mutex
	store   storage.Store
	limiter *ratelimit.Limiter
	written uint64

	// Written counts records accepted (instrumentation).
	Written metrics.Counter
}

// NewStorageUnit returns a unit backed by st (MemStore if nil) with the
// given capacity limiter.
func NewStorageUnit(st storage.Store, limiter *ratelimit.Limiter) *StorageUnit {
	if st == nil {
		st = storage.NewMemStore()
	}
	return &StorageUnit{store: st, limiter: limiter}
}

// Write stores a record at its pre-assigned position.
func (u *StorageUnit) Write(r *core.Record) error {
	if r.LId == 0 {
		return errors.New("sequencer: write without position")
	}
	if !u.limiter.Allow(1) {
		return ErrUnitOverloaded
	}
	if err := u.store.Append(r); err != nil {
		return err
	}
	u.Written.Inc()
	return nil
}

// Read returns the record at the given position.
func (u *StorageUnit) Read(lid uint64) (*core.Record, error) {
	return u.store.Get(lid)
}

// Len returns the number of records stored.
func (u *StorageUnit) Len() int { return u.store.Len() }

// Log is a CORFU-style deployment: one sequencer plus a stripe of storage
// units. Positions are striped round-robin across units (position p lives
// on unit (p-1) mod N).
type Log struct {
	seq   *Sequencer
	units []*StorageUnit
}

// NewLog assembles a deployment.
func NewLog(seq *Sequencer, units []*StorageUnit) (*Log, error) {
	if seq == nil || len(units) == 0 {
		return nil, errors.New("sequencer: need a sequencer and at least one unit")
	}
	return &Log{seq: seq, units: units}, nil
}

// UnitFor returns the storage unit owning a position.
func (l *Log) UnitFor(lid uint64) *StorageUnit {
	return l.units[int((lid-1)%uint64(len(l.units)))]
}

// Append runs the client-driven CORFU append: reserve a position at the
// sequencer, then write the record directly to the owning unit.
func (l *Log) Append(r *core.Record) (uint64, error) {
	lid, err := l.seq.Next(1)
	if err != nil {
		return 0, err
	}
	rec := r
	rec.LId = lid
	if rec.TOId == 0 {
		rec.TOId = lid
	}
	if err := l.UnitFor(lid).Write(rec); err != nil {
		return 0, err
	}
	return lid, nil
}

// Read fetches the record at lid from the owning unit.
func (l *Log) Read(lid uint64) (*core.Record, error) {
	if lid == 0 {
		return nil, core.ErrNoSuchRecord
	}
	return l.UnitFor(lid).Read(lid)
}

// Sequencer exposes the deployment's sequencer (instrumentation).
func (l *Log) Sequencer() *Sequencer { return l.seq }
