package hyksos

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/chariots"
	"repro/internal/core"
)

func hyksosCfg(self core.DCID, numDCs int) chariots.Config {
	return chariots.Config{
		Self:           self,
		NumDCs:         numDCs,
		Batchers:       1,
		Filters:        1,
		Queues:         1,
		Maintainers:    2,
		Indexers:       2,
		PlacementBatch: 4,
	}
}

func startStore(t *testing.T, self core.DCID, numDCs int) (*Store, *chariots.Datacenter) {
	t.Helper()
	dc, err := chariots.New(hyksosCfg(self, numDCs))
	if err != nil {
		t.Fatal(err)
	}
	dc.Start()
	t.Cleanup(dc.Stop)
	return NewStore(dc), dc
}

func TestPutGet(t *testing.T) {
	st, _ := startStore(t, 0, 1)
	s := st.NewSession()
	if err := s.Put("x", "10"); err != nil {
		t.Fatal(err)
	}
	v, err := s.Get("x")
	if err != nil {
		t.Fatal(err)
	}
	if v != "10" {
		t.Errorf("Get(x) = %q, want 10", v)
	}
	// Overwrite: latest put wins.
	s.Put("x", "30")
	if v, _ := s.Get("x"); v != "30" {
		t.Errorf("Get(x) after overwrite = %q, want 30", v)
	}
}

func TestGetMissingKey(t *testing.T) {
	st, _ := startStore(t, 0, 1)
	s := st.NewSession()
	s.Put("present", "1")
	if _, err := s.Get("absent"); !errors.Is(err, ErrNoKey) {
		t.Errorf("Get(absent) = %v, want ErrNoKey", err)
	}
}

func TestDeleteTombstone(t *testing.T) {
	st, _ := startStore(t, 0, 1)
	s := st.NewSession()
	s.Put("k", "v")
	if err := s.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("k"); !errors.Is(err, ErrNoKey) {
		t.Errorf("Get after delete = %v, want ErrNoKey", err)
	}
	// Re-put resurrects.
	s.Put("k", "v2")
	if v, _ := s.Get("k"); v != "v2" {
		t.Errorf("Get after re-put = %q", v)
	}
}

func TestGetTxnConsistentSnapshot(t *testing.T) {
	st, _ := startStore(t, 0, 1)
	s := st.NewSession()
	s.Put("x", "1")
	s.Put("y", "1")
	res, err := s.GetTxn("x", "y", "z")
	if err != nil {
		t.Fatal(err)
	}
	if res.Values["x"] != "1" || res.Values["y"] != "1" {
		t.Errorf("snapshot = %+v", res.Values)
	}
	if _, ok := res.Values["z"]; ok {
		t.Error("snapshot invented a value for z")
	}
	if res.AtLId == 0 {
		t.Error("snapshot has no pinned position")
	}
}

// TestGetTxnIgnoresNewerWrites is the paper's key snapshot property: a
// value written after the pinned position is not returned even though it
// is more recent (the y=50 case in the Figure 2 walkthrough).
func TestGetTxnIgnoresNewerWrites(t *testing.T) {
	st, dc := startStore(t, 0, 1)
	s := st.NewSession()
	s.Put("x", "30")
	s.Put("y", "20")
	// Appends are acknowledged when ordered, slightly before they are
	// readable; a session Get blocks until the head covers its own puts.
	if v, err := s.Get("y"); err != nil || v != "20" {
		t.Fatalf("Get(y) = %q, %v", v, err)
	}

	// Pin the snapshot now...
	head, _ := dc.Head()
	// ...then write a newer y.
	s.Put("y", "50")

	// A manual Algorithm-1 read at the old pin must see y=20.
	recs, err := dc.Reader().Read(core.Rule{
		TagKey:          keyTag("y"),
		MaxLIdExclusive: head + 1,
		MostRecent:      true,
		Limit:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || string(recs[0].Body) != "20" {
		t.Fatalf("read at pinned position = %+v, want y=20", recs)
	}
	// A fresh GetTxn pins a newer position and sees y=50.
	res, err := s.GetTxn("y")
	if err != nil {
		t.Fatal(err)
	}
	if res.Values["y"] != "50" {
		t.Errorf("fresh snapshot y = %q, want 50", res.Values["y"])
	}
}

func TestCausalPropagationAcrossDCs(t *testing.T) {
	stA, dcA := startStore(t, 0, 2)
	stB, dcB := startStore(t, 1, 2)
	dcA.ConnectTo(1, dcB.Receivers())
	dcB.ConnectTo(0, dcA.Receivers())

	sa := stA.NewSession()
	if err := sa.Put("x", "10"); err != nil {
		t.Fatal(err)
	}
	sb := stB.NewSession()
	// Hand the causal context to B and wait for it to apply.
	if !sb.WaitFor(sa.Context(), 5*time.Second) {
		t.Fatal("B never applied A's put")
	}
	sb.AdoptContext(sa.Context())
	v, err := sb.Get("x")
	if err != nil {
		t.Fatal(err)
	}
	if v != "10" {
		t.Errorf("B reads x = %q, want 10", v)
	}
	// B writes x=20 causally after reading x=10; A must order them.
	if err := sb.Put("x", "20"); err != nil {
		t.Fatal(err)
	}
	sa2 := stA.NewSession()
	if !sa2.WaitFor(sb.Context(), 5*time.Second) {
		t.Fatal("A never applied B's put")
	}
	if v, _ := sa2.Get("x"); v != "20" {
		t.Errorf("A reads x = %q, want 20 (causally latest)", v)
	}
}

// TestFigure2Scenario reproduces the paper's Figure 2 end to end on the
// distributed pipeline: concurrent writes to x at A and B may read
// differently per site; after propagation both sites converge per-host.
func TestFigure2Scenario(t *testing.T) {
	stA, dcA := startStore(t, 0, 2)
	stB, dcB := startStore(t, 1, 2)
	dcA.ConnectTo(1, dcB.Receivers())
	dcB.ConnectTo(0, dcA.Receivers())

	sa := stA.NewSession()
	sb := stB.NewSession()
	// Time 1: concurrent independent writes.
	sa.Put("y", "20")
	sa.Put("x", "30")
	sb.Put("x", "10")
	sb.Put("z", "40")

	// Wait for full exchange of the four records.
	deadline := time.Now().Add(10 * time.Second)
	for dcA.Applied().Get(1) < 2 || dcB.Applied().Get(0) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("time-1 records never exchanged")
		}
		time.Sleep(time.Millisecond)
	}

	// Time 2: one more write on each side.
	sa.Put("y", "50")
	sb.Put("z", "60")

	// Time 3: full propagation.
	deadline = time.Now().Add(10 * time.Second)
	for dcA.Applied().Get(1) < 3 || dcB.Applied().Get(0) < 3 {
		if time.Now().After(deadline) {
			t.Fatal("time-2 records never exchanged")
		}
		time.Sleep(time.Millisecond)
	}
	dcA.Quiesce(30*time.Millisecond, 5*time.Second)
	dcB.Quiesce(30*time.Millisecond, 5*time.Second)

	// Both sites must now agree on y and z (causally ordered values),
	// and x converges to one of the two concurrent writes per site.
	gaA := stA.NewSession()
	gaB := stB.NewSession()
	resA, err := gaA.GetTxn("x", "y", "z")
	if err != nil {
		t.Fatal(err)
	}
	resB, err := gaB.GetTxn("x", "y", "z")
	if err != nil {
		t.Fatal(err)
	}
	if resA.Values["y"] != "50" || resB.Values["y"] != "50" {
		t.Errorf("y = %q/%q, want 50/50", resA.Values["y"], resB.Values["y"])
	}
	if resA.Values["z"] != "60" || resB.Values["z"] != "60" {
		t.Errorf("z = %q/%q, want 60/60", resA.Values["z"], resB.Values["z"])
	}
	xA, xB := resA.Values["x"], resB.Values["x"]
	if xA != "10" && xA != "30" {
		t.Errorf("x at A = %q", xA)
	}
	if xB != "10" && xB != "30" {
		t.Errorf("x at B = %q", xB)
	}
	// Both logs causally valid.
	for _, dc := range []*chariots.Datacenter{dcA, dcB} {
		recs, _ := dc.LogRecords()
		if err := chariots.CheckCausalInvariant(recs); err != nil {
			t.Error(err)
		}
	}
}

func TestManyKeysManySessions(t *testing.T) {
	st, _ := startStore(t, 0, 1)
	const keys = 20
	s := st.NewSession()
	for round := 0; round < 5; round++ {
		for k := 0; k < keys; k++ {
			if err := s.Put(fmt.Sprintf("k%d", k), fmt.Sprintf("v%d-%d", k, round)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for k := 0; k < keys; k++ {
		v, err := s.Get(fmt.Sprintf("k%d", k))
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("v%d-4", k); v != want {
			t.Errorf("k%d = %q, want %q", k, v, want)
		}
	}
	// Snapshot across all keys is internally consistent.
	var names []string
	for k := 0; k < keys; k++ {
		names = append(names, fmt.Sprintf("k%d", k))
	}
	res, err := s.GetTxn(names...)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != keys {
		t.Errorf("snapshot has %d keys, want %d", len(res.Values), keys)
	}
}

func BenchmarkHyksosPut(b *testing.B) {
	dc, err := chariots.New(hyksosCfg(0, 1))
	if err != nil {
		b.Fatal(err)
	}
	dc.Start()
	defer dc.Stop()
	s := NewStore(dc).NewSession()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put("bench-key", "value"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHyksosGet(b *testing.B) {
	dc, err := chariots.New(hyksosCfg(0, 1))
	if err != nil {
		b.Fatal(err)
	}
	dc.Start()
	defer dc.Stop()
	s := NewStore(dc).NewSession()
	if err := s.Put("bench-key", "value"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Get("bench-key"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHyksosGetTxn(b *testing.B) {
	dc, err := chariots.New(hyksosCfg(0, 1))
	if err != nil {
		b.Fatal(err)
	}
	dc.Start()
	defer dc.Stop()
	s := NewStore(dc).NewSession()
	for _, k := range []string{"a", "b", "c"} {
		if err := s.Put(k, "v"); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.GetTxn("a", "b", "c"); err != nil {
			b.Fatal(err)
		}
	}
}
