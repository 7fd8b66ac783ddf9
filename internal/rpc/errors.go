package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"repro/internal/wire"
)

// Errors keep their identity across the wire. A handler error travels in
// the reserved msgError frame as
//
//	code u8 | retry-after i64 (ns) | arg u64 | message
//
// code names a row of a protocol's error table (0: none), arg is the one
// number a typed error carries (an epoch boundary, a blocked LId). The
// calling side rebuilds the error from the code alone, never from its text,
// so errors.Is, errors.As, the retry classification and the hint answer the
// same on a remote error as on the local one it came from. Only this file
// knows the format.

// ErrorRow is one row of a protocol's error table.
type ErrorRow struct {
	// Code identifies the row on the wire: non-zero, and disjoint across
	// protocols the way message types are (flstore from 1, chariots from
	// 32), so a client need not know which protocol its server speaks.
	Code uint8
	// Sentinel is what the serving side matches a handler error against
	// (errors.Is; the first registered row that matches wins) and what the
	// rebuilt error unwraps to.
	Sentinel error
	// Rebuild makes the typed form of the error from the hint and the
	// argument that crossed the wire; nil for a bare sentinel.
	Rebuild func(retryAfter time.Duration, arg uint64) error
}

// errorRows is the registered table, in registration order. It is filled
// during package initialization only (RegisterErrors), read-only afterwards,
// and a dozen rows long: both sides scan it.
var errorRows []ErrorRow

// RegisterErrors adds a protocol's error rows. Call it from a package-level
// initializer: the table is not locked.
func RegisterErrors(rows ...ErrorRow) {
	for _, row := range rows {
		if row.Code == 0 || rowOfCode(row.Code) != nil {
			panic(fmt.Sprintf("rpc: error code %d is reserved or registered twice", row.Code))
		}
		errorRows = append(errorRows, row)
	}
}

func rowOfCode(code uint8) *ErrorRow {
	for i := range errorRows {
		if errorRows[i].Code == code {
			return &errorRows[i]
		}
	}
	return nil
}

// retryHinter is implemented by errors that carry an admission retry-after
// hint (e.g. flstore's overload rejection), errorArger by typed errors that
// carry one number the caller needs back.
type (
	retryHinter interface{ RetryAfterHint() time.Duration }
	errorArger  interface{ ErrorArg() uint64 }
)

// errorPayload renders a handler error as a msgError payload.
func errorPayload(err error) []byte {
	var code uint8
	for i := range errorRows {
		if errors.Is(err, errorRows[i].Sentinel) {
			code = errorRows[i].Code
			break
		}
	}
	var retry time.Duration
	var h retryHinter
	if errors.As(err, &h) {
		retry = h.RetryAfterHint()
	}
	var arg uint64
	var a errorArger
	if errors.As(err, &a) {
		arg = a.ErrorArg()
	}
	msg := err.Error()
	p := append(make([]byte, 0, 1+8+8+len(msg)), code)
	p = binary.LittleEndian.AppendUint64(p, uint64(retry))
	p = binary.LittleEndian.AppendUint64(p, arg)
	return append(p, msg...)
}

// remoteError decodes a msgError payload into the error Call returns.
func remoteError(p []byte) error {
	d := wire.NewDec(p)
	code, retry, arg := d.U8(), time.Duration(d.U64()), d.U64()
	if d.Err() != nil {
		return &RemoteError{Message: "rpc: malformed error frame"}
	}
	e := &RemoteError{Message: string(d.Rest()), retryAfter: retry}
	if row := rowOfCode(code); row != nil {
		e.cause = row.Sentinel
		if row.Rebuild != nil {
			e.cause = row.Rebuild(retry, arg)
		}
	}
	return e
}

// RemoteError is an error returned by the remote handler (as opposed to a
// transport failure). When the handler's error matched a row of a
// registered error table it unwraps to that row's error — the sentinel, or
// the typed form rebuilt from the frame — so callers test it exactly as
// they would the local error.
type RemoteError struct {
	// Message is the handler error's text.
	Message    string
	retryAfter time.Duration // the pacing hint the handler's error carried
	cause      error
}

func (e *RemoteError) Error() string { return e.Message }

func (e *RemoteError) Unwrap() error { return e.cause }

// RetryAfterHint exposes the pacing hint: the rebuilt error's when it has
// one to give (it may floor what crossed the wire), the frame's otherwise.
func (e *RemoteError) RetryAfterHint() time.Duration {
	var h retryHinter
	if errors.As(e.cause, &h) {
		return h.RetryAfterHint()
	}
	return e.retryAfter
}

// IsRemote reports whether err is an error produced by the remote handler.
func IsRemote(err error) bool {
	var re *RemoteError
	return errors.As(err, &re)
}
