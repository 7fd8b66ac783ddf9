package rpc

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/trace"
)

func TestServerMetricsDispatch(t *testing.T) {
	srv := NewServer()
	// One route before metrics are enabled, one after: both are observed,
	// the named one under its name and the bare one under its number.
	srv.Register(msgEcho, Route{Name: "Echo", Serve: func(_ *trace.Ctx, p []byte) ([]byte, error) { return p, nil }})
	reg := metrics.NewRegistry()
	srv.EnableMetrics(reg, "test")
	srv.Handle(msgFail, func(p []byte) ([]byte, error) { return nil, errors.New("boom") })
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

	payload := []byte("0123456789")
	for i := 0; i < 5; i++ {
		if _, err := c.Call(msgEcho, payload); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Call(msgFail, nil); !IsRemote(err) {
		t.Fatalf("want remote error, got %v", err)
	}

	snap := reg.Snapshot()
	lat := snap.Find("rpc_server_call_seconds", map[string]string{"component": "test", "msg_type": "Echo"})
	if lat == nil || lat.Count != 5 {
		t.Errorf("echo latency series = %+v, want count 5", lat)
	}
	if lat := snap.Find("rpc_server_call_seconds", map[string]string{"msg_type": "2"}); lat == nil || lat.Count != 1 {
		t.Errorf("fail latency series = %+v, want count 1", lat)
	}
	if s := snap.Find("rpc_server_bytes_in_total", nil); s == nil || s.Value < 50 {
		t.Errorf("bytes_in = %+v, want >= 50", s)
	}
	if s := snap.Find("rpc_server_bytes_out_total", nil); s == nil || s.Value < 50 {
		t.Errorf("bytes_out = %+v, want >= 50", s)
	}
	if s := snap.Find("rpc_server_errors_total", nil); s == nil || s.Value != 1 {
		t.Errorf("errors = %+v, want 1", s)
	}
	if s := snap.Find("rpc_server_inflight_requests", nil); s == nil || s.Value != 0 {
		t.Errorf("inflight after quiesce = %+v, want 0", s)
	}

	// The series also render in exposition format.
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `rpc_server_call_seconds_count{component="test",msg_type="Echo"} 5`) {
		t.Errorf("exposition missing call count:\n%s", b.String())
	}
}
