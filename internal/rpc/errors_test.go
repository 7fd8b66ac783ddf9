package rpc

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// A protocol of the tests' own, at codes no real protocol uses.
var errTestBusy = errors.New("rpctest: busy")

type busyError struct {
	After time.Duration
	Slot  uint64
}

func (e *busyError) Error() string                 { return fmt.Sprintf("%v: slot %d", errTestBusy, e.Slot) }
func (e *busyError) Unwrap() error                 { return errTestBusy }
func (e *busyError) RetryAfterHint() time.Duration { return e.After }
func (e *busyError) ErrorArg() uint64              { return e.Slot }

var errTestGone = errors.New("rpctest: gone")

func init() {
	RegisterErrors(
		ErrorRow{Code: 250, Sentinel: errTestBusy, Rebuild: func(after time.Duration, slot uint64) error {
			return &busyError{After: after, Slot: slot}
		}},
		ErrorRow{Code: 251, Sentinel: errTestGone},
	)
}

// TestErrorFrameRoundTrip: a handler error that matches a registered row
// comes back unwrapping to the row's error — rebuilt with its hint and
// argument when the row says how — still a RemoteError with the handler's
// text; one that matches nothing comes back as text alone.
func TestErrorFrameRoundTrip(t *testing.T) {
	typed := fmt.Errorf("op 4: %w", &busyError{After: 3 * time.Millisecond, Slot: 9})
	fails := []error{
		typed,
		fmt.Errorf("%w: since %q", errTestGone, errTestBusy),
		errors.New("no row for this"),
	}
	srv := NewServer()
	srv.Handle(msgFail, func(p []byte) ([]byte, error) { return nil, fails[p[0]] })
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tcp, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	for name, c := range map[string]Client{"local": NewLocalClient(srv), "tcp": tcp} {
		_, err := c.Call(msgFail, []byte{0})
		var busy *busyError
		var re *RemoteError
		if !errors.As(err, &busy) || busy.After != 3*time.Millisecond || busy.Slot != 9 {
			t.Errorf("%s: typed error came back as %#v", name, err)
		}
		if !errors.As(err, &re) || re.Message != typed.Error() || re.RetryAfterHint() != 3*time.Millisecond {
			t.Errorf("%s: remote error %#v, want text %q and a 3ms hint", name, re, typed)
		}
		if _, err := c.Call(msgFail, []byte{1}); !errors.Is(err, errTestGone) || errors.Is(err, errTestBusy) {
			t.Errorf("%s: sentinel came back as %v", name, err)
		}
		if _, err := c.Call(msgFail, []byte{2}); !IsRemote(err) || errors.Unwrap(err) != nil || err.Error() != "no row for this" {
			t.Errorf("%s: unlisted error came back as %#v", name, err)
		}
	}
}

// TestErrorFrameMalformed: a frame too short for its header, or carrying a
// code nobody registered, is still an error and never a panic.
func TestErrorFrameMalformed(t *testing.T) {
	if err := remoteError([]byte{250, 1, 2}); !IsRemote(err) || errors.Is(err, errTestBusy) {
		t.Errorf("short frame decoded as %v", err)
	}
	unknown := errorPayload(errors.New("text"))
	unknown[0] = 77
	if err := remoteError(unknown); !IsRemote(err) || err.Error() != "text" || errors.Unwrap(err) != nil {
		t.Errorf("unknown code decoded as %#v", err)
	}
}

func TestRegisterErrorsRejectsReusedCodes(t *testing.T) {
	for _, code := range []uint8{0, 250} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("registering code %d did not panic", code)
				}
			}()
			RegisterErrors(ErrorRow{Code: code, Sentinel: errors.New("x")})
		}()
	}
}
