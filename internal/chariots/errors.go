package chariots

// The package's error taxonomy for the ingress path. SaturationError
// implements both the Retryable marker and the RetryAfterHint interface,
// so flstore.IsRetryable / flstore.RetryAfter classify it without either
// package importing the other.

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/rpc"
)

// The protocol's error table (rpc/errors.go): what keeps its identity
// across the ingest and replication endpoints. Codes are part of the wire
// format; Chariots' start at 32, clear of FLStore's.
func init() {
	rpc.RegisterErrors(
		rpc.ErrorRow{Code: 32, Sentinel: ErrPipelineSaturated, Rebuild: func(retry time.Duration, _ uint64) error {
			return &SaturationError{RetryAfter: retry}
		}},
		rpc.ErrorRow{Code: 33, Sentinel: ErrStopped},
	)
}

// ErrStopped is returned by appends racing datacenter shutdown.
var ErrStopped = errors.New("chariots: datacenter stopped")

// ErrPipelineSaturated is returned at the DC ingress when the pipeline's
// credit gate is exhausted and the shed policy is active: the offered load
// exceeds what the slowest stage is draining, and the record was rejected
// instead of queued. Retryable.
var ErrPipelineSaturated = errors.New("chariots: pipeline saturated")

// SaturationError is the typed form of ErrPipelineSaturated carrying a
// pacing hint.
type SaturationError struct {
	// RetryAfter estimates when enough credits will have drained for a
	// retry to be admitted.
	RetryAfter time.Duration
}

func (e *SaturationError) Error() string {
	if e.RetryAfter > 0 {
		return fmt.Sprintf("%s (retry after %v)", ErrPipelineSaturated.Error(), e.RetryAfter)
	}
	return ErrPipelineSaturated.Error()
}

func (e *SaturationError) Unwrap() error { return ErrPipelineSaturated }

// Retryable marks the rejection transient (flstore.IsRetryable contract).
func (e *SaturationError) Retryable() bool { return true }

// RetryAfterHint exposes the pacing hint (flstore.RetryAfter contract; the
// rpc layer encodes it across the wire).
func (e *SaturationError) RetryAfterHint() time.Duration { return e.RetryAfter }
