package cluster

import (
	"testing"

	"repro/internal/replica"
)

func TestRunFailoverSurvivesKill(t *testing.T) {
	res, err := RunFailover(FailoverOptions{
		Ack:             replica.AckMajority,
		AppendsPerPhase: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	for ph, failed := range res.FailedAppends {
		if failed != 0 {
			t.Errorf("phase %d: %d failed appends, want 0", ph, failed)
		}
	}
	if !res.Evicted {
		t.Error("killed maintainer was never evicted")
	}
	if res.CatchUpRecords == 0 {
		t.Error("restart transferred no catch-up records")
	}
	if res.HeadFinal <= res.HeadAfterKill || res.HeadAfterKill == 0 {
		t.Errorf("head did not keep advancing: %d → %d", res.HeadAfterKill, res.HeadFinal)
	}
	if res.ReadFailures != 0 {
		t.Errorf("%d of %d reads failed", res.ReadFailures, res.ReadsChecked)
	}
}
