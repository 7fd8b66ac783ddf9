package flstore

// This file is the package's error taxonomy: every sentinel the append and
// read paths can surface, the typed overload rejection carrying a pacing
// hint, and the IsRetryable/RetryAfter helpers the client pacing layer and
// the applications use instead of ad-hoc errors.Is chains.

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/replica"
	"repro/internal/rpc"
	"repro/internal/storage"
)

// The protocol's error table (rpc/errors.go): the errors whose identity
// crosses the wire, so that call sites use errors.Is, errors.As,
// IsRetryable and RetryAfter uniformly whether the API is local or remote.
// Codes are part of the wire format; flstore's start at 1.
func init() {
	rpc.RegisterErrors(
		rpc.ErrorRow{Code: 1, Sentinel: core.ErrNoSuchRecord},
		rpc.ErrorRow{Code: 2, Sentinel: core.ErrPastHead},
		rpc.ErrorRow{Code: 3, Sentinel: ErrOverloaded, Rebuild: func(retry time.Duration, _ uint64) error {
			return &OverloadError{RetryAfter: retry}
		}},
		rpc.ErrorRow{Code: 4, Sentinel: ErrOrderBacklog},
		rpc.ErrorRow{Code: 5, Sentinel: ErrWrongMaintainer},
		rpc.ErrorRow{Code: 6, Sentinel: ErrNotReplica},
		rpc.ErrorRow{Code: 7, Sentinel: ErrEpochSealed, Rebuild: func(_ time.Duration, first uint64) error {
			return &EpochSealedError{FirstLId: first}
		}},
		rpc.ErrorRow{Code: 8, Sentinel: ErrReadBlocked, Rebuild: func(retry time.Duration, lid uint64) error {
			if retry <= 0 {
				retry = readBlockHint
			}
			return &ReadBlockedError{LId: lid, RetryAfter: retry}
		}},
		rpc.ErrorRow{Code: 9, Sentinel: storage.ErrDuplicate},
		rpc.ErrorRow{Code: 10, Sentinel: storage.ErrCorrupt},
		rpc.ErrorRow{Code: 11, Sentinel: replica.ErrInsufficientAcks},
		rpc.ErrorRow{Code: 12, Sentinel: core.ErrUnencodable},
	)
}

// ErrOverloaded is returned when a maintainer's admission control rejects an
// append — either the capacity limiter is out of tokens or the ingestion
// backlog (explicit-order buffer + out-of-order slots) is at its bound.
// Open-loop workload generators count these as dropped offered load (the
// region past the saturation point in Figure 7); closed-loop clients honor
// the attached RetryAfter hint (see OverloadError) and pace themselves.
var ErrOverloaded = errors.New("flstore: maintainer overloaded")

// ErrWrongMaintainer is returned when an operation names an LId owned by a
// different maintainer; the client library routes by Placement, so seeing
// this indicates a stale configuration.
var ErrWrongMaintainer = errors.New("flstore: LId not owned by this maintainer")

// ErrNotReplica is returned when a replica operation names a range this
// maintainer neither owns nor follows under the configured replication
// factor.
var ErrNotReplica = errors.New("flstore: range not hosted by this maintainer")

// ErrOrderBacklog is returned when the explicit-order buffer (§5.4) would
// exceed its configured bound.
var ErrOrderBacklog = errors.New("flstore: explicit-order buffer full")

// ErrEpochSealed is returned when an append reaches a maintainer whose
// epoch has been sealed at a boundary the batch would cross: a new epoch
// (grown or shrunk placement) owns every position from the boundary up,
// so the old owner must not assign there. The condition is permanent for
// this session — NOT retryable against the same member — and the typed
// form carries the new epoch's first LId so clients can refresh their
// configuration from the controller and resume against the new owners
// (the §5.1 session model: clients re-poll the controller after
// problems).
var ErrEpochSealed = errors.New("flstore: epoch sealed")

// ErrReadBlocked is returned when a read names a position this member
// knows is assigned (an invalidation or gossip announced it) but whose
// payload has not yet resolved locally — the position is invalid here,
// not absent. The maintainer waits a short while for the in-flight copy
// before surfacing this; the record is durably readable at a fresher
// group member, so the session fails the read over (with no health
// penalty) and clients retry with the attached pacing hint.
var ErrReadBlocked = errors.New("flstore: read blocked on invalidated range")

// ReadBlockedError is the typed form of ErrReadBlocked: it names the
// position, unwraps to the sentinel for errors.Is, self-classifies as
// retryable, and carries the pacing hint and the position the rpc layer
// encodes across the wire.
type ReadBlockedError struct {
	LId uint64
	// RetryAfter estimates when the local copy should have resolved.
	RetryAfter time.Duration
}

func (e *ReadBlockedError) Error() string {
	return fmt.Sprintf("%s: LId %d (retry after %v)", ErrReadBlocked.Error(), e.LId, e.RetryAfter)
}

func (e *ReadBlockedError) Unwrap() error { return ErrReadBlocked }

// Retryable marks the condition transient: the record exists and will be
// served here once the payload lands, or by a group peer immediately.
func (e *ReadBlockedError) Retryable() bool { return true }

// RetryAfterHint exposes the pacing hint for RetryAfter / the rpc layer.
func (e *ReadBlockedError) RetryAfterHint() time.Duration { return e.RetryAfter }

// ErrorArg is the number an error frame carries for this error: the LId.
func (e *ReadBlockedError) ErrorArg() uint64 { return e.LId }

// EpochSealedError is the typed form of ErrEpochSealed. It unwraps to the
// sentinel for errors.Is and names the first LId of the epoch that
// supersedes this maintainer's assignment authority; the LId rides the
// error frame across the wire (ErrorArg) so remote clients recover the
// boundary without a second round trip. It deliberately does
// NOT implement Retryable: retrying the same member cannot succeed — the
// fix is a configuration refresh, not a backoff.
type EpochSealedError struct {
	// FirstLId is the new epoch's first log position: every LId >= FirstLId
	// is assigned by the new placement's owners.
	FirstLId uint64
}

func (e *EpochSealedError) Error() string {
	return fmt.Sprintf("%s: new epoch starts at LId %d", ErrEpochSealed.Error(), e.FirstLId)
}

func (e *EpochSealedError) Unwrap() error { return ErrEpochSealed }

// ErrorArg is the number an error frame carries for this error: the
// boundary.
func (e *EpochSealedError) ErrorArg() uint64 { return e.FirstLId }

// OverloadError is the typed form of ErrOverloaded: a rejection that also
// tells the client when retrying is likely to succeed. It unwraps to
// ErrOverloaded (so errors.Is keeps working) and implements the
// RetryAfterHint interface the rpc layer encodes across the wire.
type OverloadError struct {
	// RetryAfter is the server's estimate of how long the client should
	// wait before the rejected batch would be admitted: the limiter's
	// token deficit, or a backlog-drain guess when the limiter is not the
	// bottleneck. Zero means no estimate.
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	if e.RetryAfter > 0 {
		return fmt.Sprintf("%s (retry after %v)", ErrOverloaded.Error(), e.RetryAfter)
	}
	return ErrOverloaded.Error()
}

func (e *OverloadError) Unwrap() error { return ErrOverloaded }

// RetryAfterHint exposes the pacing hint; the rpc layer detects this
// interface and carries the hint across the wire in the error frame.
func (e *OverloadError) RetryAfterHint() time.Duration { return e.RetryAfter }

// retryAfterHinter matches any error carrying a pacing hint — a local
// *OverloadError, a *rpc.RemoteError whose frame carried one, or a
// foreign package's typed rejection (e.g. chariots ingress shedding).
type retryAfterHinter interface {
	RetryAfterHint() time.Duration
}

// retryableMarker matches foreign typed errors that self-classify (e.g.
// chariots' ingress-shed error) without this package importing them.
type retryableMarker interface {
	Retryable() bool
}

// IsRetryable reports whether err names a transient condition that a
// client should retry (after pacing): maintainer overload, a read racing
// the head of the log, a read blocked on an unresolved invalidation, a
// full explicit-order buffer, an under-acked replicated append, or any
// error that marks itself retryable via a `Retryable() bool` method.
// Configuration and logic errors (wrong maintainer, duplicate LId,
// missing record) are not retryable.
func IsRetryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrOverloaded) ||
		errors.Is(err, ErrOrderBacklog) ||
		errors.Is(err, core.ErrPastHead) ||
		errors.Is(err, ErrReadBlocked) ||
		errors.Is(err, replica.ErrInsufficientAcks) {
		return true
	}
	var r retryableMarker
	if errors.As(err, &r) {
		return r.Retryable()
	}
	return false
}

// RetryAfter extracts the server-provided pacing hint from err, or 0 when
// none is attached. It sees through wrapping and through the rpc layer's
// wire encoding, so callers can use it uniformly on local and remote
// rejections.
func RetryAfter(err error) time.Duration {
	var h retryAfterHinter
	if errors.As(err, &h) {
		if d := h.RetryAfterHint(); d > 0 {
			return d
		}
	}
	return 0
}

// Retry runs op up to 1+retries times, retrying only errors IsRetryable
// classifies as transient and sleeping the server's RetryAfter hint (or
// 1ms when none) between attempts. It is the uniform admission-rejection
// handler for applications that want blocking semantics over a shedding
// log (hyksos, streamproc, msgfutures); clients needing cancellation or
// adaptive pacing use the Client's own retry loop instead.
func Retry[T any](retries int, op func() (T, error)) (T, error) {
	for attempt := 0; ; attempt++ {
		v, err := op()
		if err == nil || attempt >= retries || !IsRetryable(err) {
			return v, err
		}
		d := RetryAfter(err)
		if d <= 0 {
			d = time.Millisecond
		}
		time.Sleep(d)
	}
}
