package rpc

import (
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/wire"
)

// echoReq is a request that carries a trace context beside its value, the
// way a record batch does.
type echoReq struct {
	V  uint64
	TC trace.Ctx
}

var u64Codec = Codec[uint64]{
	Put: func(dst []byte, v uint64) ([]byte, error) { return binary.LittleEndian.AppendUint64(dst, v), nil },
	Get: func(p []byte, _ *trace.Ctx) (uint64, error) {
		d := wire.NewDec(p)
		return d.U64(), d.Err()
	},
}

var rowDouble = Message[echoReq, uint64]{
	Type: 40, Name: "Double", Reply: u64Codec,
	Req: Codec[echoReq]{
		Put: func(dst []byte, q echoReq) ([]byte, error) { return u64Codec.Put(dst, q.V) },
		Get: func(p []byte, tc *trace.Ctx) (echoReq, error) {
			v, err := u64Codec.Get(p, nil)
			return echoReq{V: v, TC: *tc}, err
		},
	},
	TraceOf: func(q echoReq) trace.Ctx { return q.TC },
}

// TestMessageRow drives one row end to end, in process and over TCP: the
// request reaches the handler decoded, a sampled context crosses in the
// envelope and an unsampled one does not, the reply comes back decoded, a
// handler error comes back as a remote error, and a payload either side
// cannot decode is an error that names the row.
func TestMessageRow(t *testing.T) {
	srv := NewServer()
	seen := make(chan trace.Ctx, 1) // the context of the request being handled
	rowDouble.Serve(srv, func(q echoReq) (uint64, error) {
		seen <- q.TC
		if q.V == 0 {
			return 0, errors.New("nothing to double")
		}
		return 2 * q.V, nil
	})
	// A second server answers the same type with a reply too short for the row.
	short := NewServer()
	short.Handle(rowDouble.Type, func(p []byte) ([]byte, error) { return []byte{1, 2, 3}, nil })
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
		got, err := rowDouble.Call(c, echoReq{V: 21})
		if err != nil || got != 42 {
			t.Fatalf("%s: Double(21) = %d, %v", name, got, err)
		}
		if (<-seen).Sampled() {
			t.Errorf("%s: an untraced call reached the handler sampled", name)
		}
		tc := trace.Ctx{T: 7, S: 9, F: trace.FlagSampled}
		if _, err := rowDouble.Call(c, echoReq{V: 1, TC: tc}); err != nil {
			t.Fatal(err)
		}
		if got := <-seen; got.T != 7 || got.S != 9 || !got.Sampled() {
			t.Errorf("%s: handler saw context %+v, want trace 7 span 9 sampled", name, got)
		}
		if _, err := rowDouble.Call(c, echoReq{}); !IsRemote(err) || !strings.Contains(err.Error(), "nothing to double") {
			t.Errorf("%s: handler error came back as %v", name, err)
		}
		<-seen
		if _, err := c.Call(rowDouble.Type, []byte{1}); !IsRemote(err) || !strings.Contains(err.Error(), "Double request") {
			t.Errorf("%s: short request came back as %v, want an error naming the row", name, err)
		}
	}
	if _, err := rowDouble.Call(NewLocalClient(short), echoReq{V: 1}); err == nil || !strings.Contains(err.Error(), "Double response") {
		t.Errorf("short reply came back as %v, want an error naming the row", err)
	}
}
