package cluster

import (
	"testing"
	"time"
)

func TestRunHyksosSmoke(t *testing.T) {
	res, err := RunHyksos(HyksosOptions{
		Sessions:    2,
		Keys:        20,
		PutFraction: 0.3,
		Duration:    300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Puts == 0 || res.Gets == 0 {
		t.Errorf("puts=%d gets=%d; want both nonzero", res.Puts, res.Gets)
	}
	if res.OpsPerSec <= 0 {
		t.Error("no throughput measured")
	}
	if res.GetMean <= 0 || res.PutMean <= 0 {
		t.Error("latencies not measured")
	}
}
