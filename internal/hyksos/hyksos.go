// Package hyksos implements Hyksos (§4.1): a causally consistent
// key-value store built purely on the Chariots shared-log interface. The
// value of a key lives in the log; the current value is the record with
// the highest log position containing a put to that key. Get transactions
// (Algorithm 1) return a consistent snapshot by pinning the head of the
// log and reading each key's latest version below it.
package hyksos

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/chariots"
	"repro/internal/core"
	"repro/internal/flstore"
	"repro/internal/vclock"
)

// putRetries bounds how many times a put is retried when the datacenter's
// admission control sheds it (Config.ShedOnSaturation); waits between
// attempts honor the server's retry hint via flstore.Retry.
const putRetries = 8

// keyTag namespaces the per-key index tag so each key gets its own posting
// list at the indexers.
func keyTag(key string) string { return "hyksos:" + key }

// ErrNoKey is returned by Get for keys with no visible put.
var ErrNoKey = errors.New("hyksos: key not found")

// Store is a Hyksos front end over one datacenter's Chariots instance.
// The datacenter must be configured with at least one indexer (tag reads).
// Store is safe for concurrent use; per-client causal context lives in
// Session.
type Store struct {
	dc *chariots.Datacenter

	// PollInterval paces waits on state that has no subscription surface
	// (the awareness table in WaitFor). Head-of-log waits subscribe
	// through the reader's WaitHead instead of sleeping. 0 = 500µs.
	PollInterval time.Duration
}

func (s *Store) pollInterval() time.Duration {
	if s.PollInterval > 0 {
		return s.PollInterval
	}
	return 500 * time.Microsecond
}

// NewStore wraps a running datacenter.
func NewStore(dc *chariots.Datacenter) *Store { return &Store{dc: dc} }

// Session is one application client's causal context: the record
// dependencies it has observed (its own puts and every get it performed).
// Operations through the same session are causally ordered; Chariots
// honors that order at every datacenter.
type Session struct {
	st       *Store
	observed vclock.Vector
	// lastPutLId makes the session read-its-own-writes: gets wait for
	// the head of the log to pass the session's latest put.
	lastPutLId uint64
}

// NewSession starts a causal session against the store.
func (s *Store) NewSession() *Session {
	return &Session{st: s, observed: vclock.NewVector(s.dc.ATable().N())}
}

// Put writes key=value. The record carries the session's observed
// dependencies, so everything the session has read happens-before this
// put at every datacenter.
func (s *Session) Put(key, value string) error {
	ack, err := flstore.Retry(putRetries, func() (chariots.AppendAck, error) {
		return s.st.dc.AppendDeps([]byte(value),
			[]core.Tag{{Key: keyTag(key), Value: value}}, s.observed.Deps())
	})
	if err != nil {
		return err
	}
	s.observed.Advance(s.st.dc.Self(), ack.TOId)
	s.lastPutLId = ack.LId
	return nil
}

// Delete writes a tombstone for key.
func (s *Session) Delete(key string) error {
	ack, err := flstore.Retry(putRetries, func() (chariots.AppendAck, error) {
		return s.st.dc.AppendDeps(nil,
			[]core.Tag{{Key: keyTag(key), Value: ""}, {Key: "hyksos-tombstone", Value: "1"}},
			s.observed.Deps())
	})
	if err != nil {
		return err
	}
	s.observed.Advance(s.st.dc.Self(), ack.TOId)
	s.lastPutLId = ack.LId
	return nil
}

// waitHead blocks until the head of the log reaches at least lid. The wait
// subscribes to head advances (the reader parks on the laggard range's
// long-poll) instead of sleeping a fixed tick.
func (s *Session) waitHead(lid uint64) error {
	if lid == 0 {
		return nil
	}
	head, err := s.st.dc.Reader().WaitHead(lid, 5*time.Second)
	if err != nil {
		return err
	}
	if head < lid {
		return fmt.Errorf("hyksos: head stuck at %d below %d", head, lid)
	}
	return nil
}

// Get returns the current value of key: the most recent put below the head
// of the log. The read joins the session's causal context.
func (s *Session) Get(key string) (string, error) {
	if err := s.waitHead(s.lastPutLId); err != nil {
		return "", err
	}
	recs, err := s.st.dc.Reader().Read(core.Rule{
		TagKey:     keyTag(key),
		MostRecent: true,
		Limit:      1,
	})
	if err != nil {
		return "", err
	}
	if len(recs) == 0 {
		return "", fmt.Errorf("%w: %q", ErrNoKey, key)
	}
	rec := recs[0]
	s.observe(rec)
	if rec.HasTag("hyksos-tombstone") {
		return "", fmt.Errorf("%w: %q (deleted)", ErrNoKey, key)
	}
	return string(rec.Body), nil
}

// observe folds a read record into the session's causal context
// (happened-before: the record's host order and its own dependencies).
func (s *Session) observe(rec *core.Record) {
	s.observed.Advance(rec.Host, rec.TOId)
	for _, d := range rec.Deps {
		s.observed.Advance(d.DC, d.TOId)
	}
}

// TxnResult is the snapshot returned by a get transaction: values for the
// keys that had one, and the pinned log position the snapshot reflects.
type TxnResult struct {
	Values map[string]string
	AtLId  uint64
}

// GetTxn runs Algorithm 1: pin the head of the log, then read each key's
// most recent version at a position at or below the pin. The result is a
// consistent snapshot: exactly the state of the key-value store at log
// position AtLId.
func (s *Session) GetTxn(keys ...string) (*TxnResult, error) {
	if err := s.waitHead(s.lastPutLId); err != nil {
		return nil, err
	}
	// Line 2: request the head of the log position id. HeadExact
	// guarantees no gaps at or below it.
	head, err := s.st.dc.Head()
	if err != nil {
		return nil, err
	}
	res := &TxnResult{Values: make(map[string]string, len(keys)), AtLId: head}
	// Lines 4-6: read each key's most recent version with LId <= head.
	for _, key := range keys {
		recs, err := s.st.dc.Reader().Read(core.Rule{
			TagKey:          keyTag(key),
			MaxLIdExclusive: head + 1,
			MostRecent:      true,
			Limit:           1,
		})
		if err != nil {
			return nil, err
		}
		if len(recs) == 0 {
			continue
		}
		rec := recs[0]
		s.observe(rec)
		if rec.HasTag("hyksos-tombstone") {
			continue
		}
		res.Values[key] = string(rec.Body)
	}
	return res, nil
}

// WaitFor blocks until this datacenter has applied the given remote
// context (another session's observed vector) AND the head of the log has
// advanced past those records, so subsequent Gets can read them — the
// cross-datacenter causal hand-off used when a client migrates or a test
// asserts propagation. The queues advance the awareness table when they
// order a record, while their forwarders hand it to the log maintainers
// off the token path, hence the second wait. That wait suffices because of
// FLStore's visibility contract (DESIGN.md §7): the head covers a position
// only after its maintainer has stored the record and the indexers have
// accepted its tag postings, so a tag-rule Get pinned at this head finds it.
func (s *Session) WaitFor(ctx vclock.Vector, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if s.st.dc.Applied().Covers(ctx) {
			// LIds are dense, so every record applied so far has an
			// LId at or below the applied count; once the head
			// covers it, the context's records are readable.
			target := s.st.dc.AppliedCount()
			remain := time.Until(deadline)
			if remain <= 0 {
				return false
			}
			head, err := s.st.dc.Reader().WaitHead(target, remain)
			return err == nil && head >= target
		}
		time.Sleep(s.st.pollInterval())
	}
	return false
}

// Context returns a copy of the session's causal context, transferable to
// a session at another datacenter.
func (s *Session) Context() vclock.Vector { return s.observed.Clone() }

// AdoptContext merges a transferred causal context into this session.
func (s *Session) AdoptContext(ctx vclock.Vector) { s.observed.Merge(ctx) }
