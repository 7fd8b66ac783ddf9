// Package vclock provides the causality-tracking primitives of Chariots:
// per-datacenter version vectors and the n×n Awareness Table (ATable) of
// §6.1, inspired by the Replicated Dictionary of Wuu & Bernstein.
package vclock

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"

	"repro/internal/core"
)

// Vector maps each datacenter (by dense DCID index) to the highest TOId of
// that datacenter's records covered by the vector. A Vector with value v[d]
// = t asserts knowledge of every record of datacenter d with TOId ≤ t.
type Vector []uint64

// NewVector returns a zero vector over n datacenters.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector { return append(Vector(nil), v...) }

// Get returns the entry for dc, tolerating out-of-range ids as 0.
func (v Vector) Get(dc core.DCID) uint64 {
	if int(dc) >= len(v) {
		return 0
	}
	return v[dc]
}

// Set updates the entry for dc. It panics if dc is out of range, which
// indicates a configuration error (vectors are sized at cluster creation).
func (v Vector) Set(dc core.DCID, toid uint64) { v[dc] = toid }

// Advance raises the entry for dc to toid if toid is larger, and reports
// whether the vector changed.
func (v Vector) Advance(dc core.DCID, toid uint64) bool {
	if int(dc) >= len(v) || v[dc] >= toid {
		return false
	}
	v[dc] = toid
	return true
}

// Merge raises every entry of v to at least the corresponding entry of o,
// and reports whether the vector changed.
func (v Vector) Merge(o Vector) bool {
	changed := false
	for i := range v {
		if i < len(o) && o[i] > v[i] {
			v[i] = o[i]
			changed = true
		}
	}
	return changed
}

// Covers reports whether v dominates o in every component: v is at least
// as knowledgeable as o.
func (v Vector) Covers(o Vector) bool {
	for i := range o {
		if o[i] > v.Get(core.DCID(i)) {
			return false
		}
	}
	return true
}

// CoversDeps reports whether every dependency in deps is satisfied by v.
func (v Vector) CoversDeps(deps []core.Dep) bool {
	for _, d := range deps {
		if v.Get(d.DC) < d.TOId {
			return false
		}
	}
	return true
}

// Deps converts the vector to an explicit dependency list, omitting zero
// entries. Clients stamp this onto records at append time.
func (v Vector) Deps() []core.Dep {
	var deps []core.Dep
	for i, t := range v {
		if t > 0 {
			deps = append(deps, core.Dep{DC: core.DCID(i), TOId: t})
		}
	}
	return deps
}

// String renders the vector as "[3 0 7]".
func (v Vector) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, t := range v {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", t)
	}
	b.WriteByte(']')
	return b.String()
}

// AppendBinary appends a fixed-width encoding of v to dst.
func (v Vector) AppendBinary(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(v)))
	for _, t := range v {
		dst = binary.LittleEndian.AppendUint64(dst, t)
	}
	return dst
}

// DecodeVector decodes a vector from the front of buf, returning the
// vector and bytes consumed.
func DecodeVector(buf []byte) (Vector, int, error) {
	if len(buf) < 2 {
		return nil, 0, errors.New("vclock: short buffer")
	}
	n := int(binary.LittleEndian.Uint16(buf))
	if len(buf) < 2+8*n {
		return nil, 0, errors.New("vclock: short buffer")
	}
	v := NewVector(n)
	for i := 0; i < n; i++ {
		v[i] = binary.LittleEndian.Uint64(buf[2+8*i:])
	}
	return v, 2 + 8*n, nil
}

// ATable is the Awareness Table of §6.1: an n×n matrix of TOIds where, at
// datacenter A, entry [B][C] is A's certainty about B's knowledge of C's
// records — "A is certain B knows all records hosted at C up to TOId
// T[B][C]". Row [self] is the datacenter's own knowledge vector.
//
// ATable is safe for concurrent use.
type ATable struct {
	mu   sync.RWMutex
	self core.DCID
	t    []Vector // row per datacenter
}

// NewATable returns a zeroed table over n datacenters, owned by self.
func NewATable(self core.DCID, n int) *ATable {
	t := make([]Vector, n)
	for i := range t {
		t[i] = NewVector(n)
	}
	return &ATable{self: self, t: t}
}

// Self returns the owning datacenter.
func (a *ATable) Self() core.DCID { return a.self }

// N returns the number of datacenters the table tracks.
func (a *ATable) N() int { return len(a.t) }

// Get returns entry [row][col].
func (a *ATable) Get(row, col core.DCID) uint64 {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.t[row].Get(col)
}

// Advance raises entry [row][col] to toid if larger.
func (a *ATable) Advance(row, col core.DCID, toid uint64) {
	a.mu.Lock()
	a.t[row].Advance(col, toid)
	a.mu.Unlock()
}

// RecordApplied notes that the owning datacenter has applied record (host,
// toid) to its log: it advances the self row.
func (a *ATable) RecordApplied(host core.DCID, toid uint64) {
	a.Advance(a.self, host, toid)
}

// SelfVector returns a copy of the owning datacenter's knowledge row.
func (a *ATable) SelfVector() Vector {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.t[a.self].Clone()
}

// Row returns a copy of a row.
func (a *ATable) Row(row core.DCID) Vector {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.t[row].Clone()
}

// Snapshot returns a deep copy of the whole table, used when shipping the
// table alongside a log delta (§6.1 "Propagate").
func (a *ATable) Snapshot() []Vector {
	a.mu.RLock()
	defer a.mu.RUnlock()
	out := make([]Vector, len(a.t))
	for i, row := range a.t {
		out[i] = row.Clone()
	}
	return out
}

// MergeSnapshot folds a table snapshot received from another datacenter
// into this one: every entry becomes the max of the two. The self row is
// merged too — a peer may legitimately know more about what we were sent
// than our last local update (e.g. after recovery) — but local application
// remains the primary driver of the self row via RecordApplied. It reports
// whether the self row rose: every datacenter announces its own row, so
// that is the only thing a merge can teach us that our peers will not hear
// from someone else.
func (a *ATable) MergeSnapshot(snap []Vector) (selfRose bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for i := range a.t {
		if i < len(snap) && a.t[i].Merge(snap[i]) && core.DCID(i) == a.self {
			selfRose = true
		}
	}
	return selfRose
}

// KnownBy reports A's certainty that datacenter dc knows record (host,
// toid): used to skip already-replicated records when propagating.
func (a *ATable) KnownBy(dc, host core.DCID, toid uint64) bool {
	return a.Get(dc, host) >= toid
}

// GCSafe reports whether record (host, toid) is known by every datacenter
// and may therefore be garbage collected (§6.1): ∀j, T[j][host] ≥ toid.
func (a *ATable) GCSafe(host core.DCID, toid uint64) bool {
	a.mu.RLock()
	defer a.mu.RUnlock()
	for _, row := range a.t {
		if row.Get(host) < toid {
			return false
		}
	}
	return true
}

// GCFrontier returns, for each host datacenter, the highest TOId known by
// every datacenter — the prefix of each host's records that is safe to
// garbage collect everywhere.
func (a *ATable) GCFrontier() Vector {
	a.mu.RLock()
	defer a.mu.RUnlock()
	n := len(a.t)
	f := NewVector(n)
	for host := 0; host < n; host++ {
		min := a.t[0].Get(core.DCID(host))
		for _, row := range a.t[1:] {
			if v := row.Get(core.DCID(host)); v < min {
				min = v
			}
		}
		f[host] = min
	}
	return f
}

// AppendBinary appends a snapshot encoding of the table to dst.
func (a *ATable) AppendBinary(dst []byte) []byte {
	snap := a.Snapshot()
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(snap)))
	for _, row := range snap {
		dst = row.AppendBinary(dst)
	}
	return dst
}

// DecodeATableSnapshot decodes a table snapshot from buf.
func DecodeATableSnapshot(buf []byte) ([]Vector, int, error) {
	if len(buf) < 2 {
		return nil, 0, errors.New("vclock: short buffer")
	}
	n := int(binary.LittleEndian.Uint16(buf))
	off := 2
	snap := make([]Vector, n)
	for i := 0; i < n; i++ {
		v, used, err := DecodeVector(buf[off:])
		if err != nil {
			return nil, 0, err
		}
		snap[i] = v
		off += used
	}
	return snap, off, nil
}
