package storage

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"

	"repro/internal/core"
)

// TieredStore is the log-structured two-tier Store of the durability
// rebuild: a hot SegmentStore absorbs appends (group-commit fsync
// windows), and sealed history compacts in LId order into the cold
// Archive. Reads and scans span both tiers transparently; GC is driven by
// the compaction watermark — "collecting" a prefix means archiving it,
// not deleting it, so the full history stays readable (§6.1's archive
// policy) while the hot tier stays small enough to recover fast.
//
// Crash-safety invariant: Compact archives (durable tmp+rename Put) and
// only then trims the hot tier. A crash between the two leaves records in
// both tiers — reads filter the hot tier to LId > compacted so nothing is
// served twice — and a crash mid-Put leaves a torn volume that OpenArchive
// discards, with every record still in the hot tier.
type TieredStore struct {
	mu        sync.Mutex
	compactMu sync.Mutex // serializes Compact; acquired before mu
	hot       *SegmentStore
	cold      *Archive
	compacted uint64 // every LId <= compacted is durably archived
	coldLen   int
	hotLive   int // hot records with LId > compacted
	closed    bool
}

// OpenTieredStore opens (creating if needed) a tiered store rooted at dir:
// hot segments under dir/hot, archive volumes under dir/cold. opts applies
// to the hot tier. The compaction watermark recovers as the highest
// archived LId; hot records at or below it (a crash landed between archive
// Put and hot GC) are masked from reads and trimmed by the next Compact.
func OpenTieredStore(dir string, opts SegmentStoreOptions) (*TieredStore, error) {
	hot, err := OpenSegmentStore(filepath.Join(dir, "hot"), opts)
	if err != nil {
		return nil, err
	}
	cold, err := OpenArchive(filepath.Join(dir, "cold"))
	if err != nil {
		hot.Close()
		return nil, err
	}
	t := &TieredStore{hot: hot, cold: cold}
	t.compacted = cold.MaxArchived()
	t.coldLen = cold.Count()
	t.hotLive = hot.lenAbove(t.compacted)
	return t, nil
}

// Hot exposes the hot tier (metrics, fsync accounting).
func (t *TieredStore) Hot() *SegmentStore { return t.hot }

// Cold exposes the archive tier (introspection).
func (t *TieredStore) Cold() *Archive { return t.cold }

// Compacted returns the compaction watermark: every LId at or below it is
// durably archived in the cold tier.
func (t *TieredStore) Compacted() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.compacted
}

// Durable reports whether appends imply stable storage on return, same as
// the hot tier's policy.
func (t *TieredStore) Durable() bool { return t.hot.Durable() }

// Append implements Store.
func (t *TieredStore) Append(r *core.Record) error {
	return t.AppendBatch([]*core.Record{r})
}

// AppendBatch implements Store. New records land in the hot tier; records
// at or below the compaction watermark are already archived and rejected
// as duplicates.
func (t *TieredStore) AppendBatch(rs []*core.Record) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrClosed
	}
	compacted := t.compacted
	t.mu.Unlock()
	for _, r := range rs {
		if r.LId != 0 && r.LId <= compacted {
			return fmt.Errorf("%w: %d (archived)", ErrDuplicate, r.LId)
		}
	}
	if err := t.hot.AppendBatch(rs); err != nil {
		return err
	}
	t.mu.Lock()
	t.hotLive += len(rs)
	t.mu.Unlock()
	return nil
}

// Get implements Store: archived positions are served from the cold tier,
// everything newer from the hot tier.
func (t *TieredStore) Get(lid uint64) (*core.Record, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, ErrClosed
	}
	compacted := t.compacted
	t.mu.Unlock()
	if lid != 0 && lid <= compacted {
		r, err := t.cold.Get(lid)
		if errors.Is(err, ErrNotArchived) {
			return nil, core.ErrNoSuchRecord
		}
		return r, err
	}
	return t.hot.Get(lid)
}

// Scan implements Store: the cold tier serves LIds up to the compaction
// watermark, the hot tier everything above it, in one ascending pass.
// Records the hot tier still holds below the watermark (crash before GC)
// are masked so no position is visited twice.
func (t *TieredStore) Scan(minLId, maxLId uint64, fn func(*core.Record) bool) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrClosed
	}
	compacted := t.compacted
	t.mu.Unlock()
	stopped := false
	if minLId <= compacted {
		coldMax := compacted
		if maxLId != 0 && maxLId < coldMax {
			coldMax = maxLId
		}
		err := t.cold.Scan(minLId, coldMax, func(r *core.Record) bool {
			if !fn(r) {
				stopped = true
				return false
			}
			return true
		})
		if err != nil || stopped {
			return err
		}
	}
	if maxLId != 0 && maxLId <= compacted {
		return nil
	}
	hotMin := minLId
	if hotMin <= compacted {
		hotMin = compacted + 1
	}
	return t.hot.Scan(hotMin, maxLId, fn)
}

// MaxLId implements Store.
func (t *TieredStore) MaxLId() uint64 {
	hot := t.hot.MaxLId()
	t.mu.Lock()
	compacted := t.compacted
	t.mu.Unlock()
	if hot > compacted {
		return hot
	}
	return compacted
}

// Len implements Store: archived records plus live (unmasked) hot records.
func (t *TieredStore) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.coldLen + t.hotLive
}

// GC implements Store by compacting: records with LId <= upTo move from
// the hot tier into the archive (if not already there), then the hot tier
// trims whole sealed segments. The returned count is the number of records
// newly archived — nothing is deleted from history.
func (t *TieredStore) GC(upTo uint64) (int, error) {
	return t.Compact(upTo)
}

// Compact archives the hot prefix (compacted, upTo] and advances the
// compaction watermark, then lets the hot tier drop fully-covered sealed
// segments. Safe to call concurrently with appends and reads; compactions
// themselves serialize.
func (t *TieredStore) Compact(upTo uint64) (int, error) {
	t.compactMu.Lock()
	defer t.compactMu.Unlock()
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return 0, ErrClosed
	}
	compacted := t.compacted
	t.mu.Unlock()
	if upTo <= compacted {
		return 0, nil
	}
	var batch []*core.Record
	if err := t.hot.Scan(compacted+1, upTo, func(r *core.Record) bool {
		batch = append(batch, r)
		return true
	}); err != nil {
		return 0, err
	}
	if len(batch) > 0 {
		// Durability point: the archive volume is fsynced and renamed into
		// place before any hot record is dropped.
		if err := t.cold.Put(batch); err != nil {
			return 0, err
		}
	}
	if _, err := t.hot.GC(upTo); err != nil {
		return len(batch), fmt.Errorf("storage: archived but hot GC failed: %w", err)
	}
	t.mu.Lock()
	if upTo > t.compacted {
		t.compacted = upTo
	}
	t.coldLen += len(batch)
	t.hotLive = t.hot.lenAbove(t.compacted)
	t.mu.Unlock()
	return len(batch), nil
}

// Close implements Store.
func (t *TieredStore) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.mu.Unlock()
	return t.hot.Close()
}
