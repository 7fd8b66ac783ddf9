package rpc

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
)

func TestTracedHeaderRoundtrip(t *testing.T) {
	tc := trace.Ctx{T: 0xabc, S: 0xdef, F: trace.FlagSampled | trace.FlagForced}
	p := appendTracedHeader(nil, tc, 42)
	p = append(p, "hello"...)

	got, inner, body, err := open(msgTraced, p)
	if err != nil {
		t.Fatal(err)
	}
	if got.T != tc.T || got.S != tc.S || got.F != tc.F {
		t.Fatalf("roundtrip: %+v vs %+v", got, tc)
	}
	if got.At == 0 {
		t.Fatal("decode did not restamp At")
	}
	if inner != 42 || string(body) != "hello" {
		t.Fatalf("inner=%d body=%q", inner, body)
	}

	if _, _, _, err := open(msgTraced, p[:10]); err == nil {
		t.Fatal("short header decoded")
	}
}

func TestCallTracedOverTCP(t *testing.T) {
	trace.Default().Reset()
	srv := NewServer()
	var gotCtx trace.Ctx
	srv.Register(7, Route{Serve: func(tc *trace.Ctx, p []byte) ([]byte, error) {
		gotCtx = *tc
		tc.Hop(trace.Default(), "handler.work", 0, "", 0, 1)
		return append([]byte("ok:"), p...), nil
	}})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	tc := trace.Forced()
	rootS := tc.Hop(trace.Default(), "client.send", 0, "", 0, 1)
	resp, err := CallTraced(c, &tc, 7, []byte("ping"))
	if err != nil || string(resp) != "ok:ping" {
		t.Fatalf("resp=%q err=%v", resp, err)
	}
	if gotCtx.T != tc.T {
		t.Fatalf("server saw trace %v, want %v", gotCtx.T, tc.T)
	}
	if gotCtx.S != rootS {
		t.Fatalf("server parent span %v, want client span %v", gotCtx.S, rootS)
	}
	if !gotCtx.Sampled() {
		t.Fatal("server ctx not sampled")
	}

	spans := trace.Default().Snapshot(trace.Filter{Trace: tc.T})
	stages := make(map[string]bool)
	for _, s := range spans {
		stages[s.Stage] = true
	}
	for _, want := range []string{"client.send", "rpc.call", "rpc.serve", "handler.work"} {
		if !stages[want] {
			t.Fatalf("missing stage %q in %v", want, spans)
		}
	}
}

func TestCallTracedUnsampledUsesPlainFrame(t *testing.T) {
	srv := NewServer()
	srv.Register(7, Route{Serve: func(tc *trace.Ctx, p []byte) ([]byte, error) {
		if tc.Sampled() {
			return nil, errors.New("unexpectedly sampled")
		}
		return []byte("plain"), nil
	}})
	c := NewLocalClient(srv)
	defer c.Close()

	var tc trace.Ctx
	resp, err := CallTraced(c, &tc, 7, []byte("x"))
	if err != nil || string(resp) != "plain" {
		t.Fatalf("resp=%q err=%v", resp, err)
	}
	// nil ctx degrades too
	if _, err := CallTraced(c, nil, 7, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTracedEnvelopeToPlainHandler(t *testing.T) {
	srv := NewServer()
	srv.Handle(9, func(p []byte) ([]byte, error) { return []byte("legacy"), nil })
	c := NewLocalClient(srv)
	defer c.Close()
	tc := trace.Forced()
	resp, err := CallTraced(c, &tc, 9, nil)
	if err != nil || string(resp) != "legacy" {
		t.Fatalf("resp=%q err=%v", resp, err)
	}
}

func TestTracedErrorPropagation(t *testing.T) {
	srv := NewServer()
	srv.Register(9, Route{Serve: func(tc *trace.Ctx, p []byte) ([]byte, error) {
		return nil, errors.New("boom")
	}})
	c := NewLocalClient(srv)
	defer c.Close()
	tc := trace.Forced()
	_, err := CallTraced(c, &tc, 9, nil)
	if !IsRemote(err) || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err=%v", err)
	}
}

func TestTracedDetachedPeek(t *testing.T) {
	srv := NewServer()
	release := make(chan struct{})
	srv.Register(11, Route{Detached: true, Serve: func(tc *trace.Ctx, p []byte) ([]byte, error) {
		<-release
		return []byte("late"), nil
	}})
	srv.Handle(12, func(p []byte) ([]byte, error) { return []byte("fast"), nil })
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// A traced long-poll must not head-of-line-block the plain request
	// pipelined behind it on the same connection.
	done := make(chan error, 1)
	go func() {
		tc := trace.Forced()
		resp, err := CallTraced(c, &tc, 11, nil)
		if err == nil && string(resp) != "late" {
			err = errors.New("bad detached resp")
		}
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	resp, err := c.Call(12, nil)
	if err != nil || string(resp) != "fast" {
		t.Fatalf("pipelined call blocked: resp=%q err=%v", resp, err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestTracedInnerTypePeek: the route, its serving class and its histogram
// belong to the type inside the envelope, which the server unwraps before
// it looks anything up; fault injectors peek only the context.
func TestTracedInnerTypePeek(t *testing.T) {
	srv := NewServer()
	srv.Register(33, Route{Name: "Inner", Serve: func(*trace.Ctx, []byte) ([]byte, error) { return nil, nil }})
	reg := metrics.NewRegistry()
	srv.EnableMetrics(reg, "test")
	tc := trace.Forced()
	if _, err := CallTraced(NewLocalClient(srv), &tc, 33, nil); err != nil {
		t.Fatal(err)
	}
	if lat := reg.Snapshot().Find("rpc_server_call_seconds", map[string]string{"msg_type": "Inner"}); lat == nil || lat.Count != 1 {
		t.Fatalf("traced call observed as %+v, want one call under the inner type's name", lat)
	}
	p := appendTracedHeader(nil, tc, 33)
	if got, ok := TracedContext(msgTraced, p); !ok || got.T != tc.T {
		t.Fatalf("ctx peek: %+v %v", got, ok)
	}
	if _, ok := TracedContext(4, nil); ok {
		t.Fatal("plain frame yielded ctx")
	}
}

func TestHandleReservedPanics(t *testing.T) {
	srv := NewServer()
	for _, typ := range []uint8{msgError, msgTraced} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("registering type %#x did not panic", typ)
				}
			}()
			srv.Handle(typ, func(p []byte) ([]byte, error) { return nil, nil })
		}()
	}
}
