package vclock

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

func TestVectorBasics(t *testing.T) {
	v := NewVector(3)
	if got := v.Get(5); got != 0 {
		t.Errorf("out-of-range Get = %d, want 0", got)
	}
	v.Set(1, 10)
	if got := v.Get(1); got != 10 {
		t.Errorf("Get(1) = %d, want 10", got)
	}
	if v.Advance(1, 5) {
		t.Error("Advance to lower value reported change")
	}
	if !v.Advance(1, 20) {
		t.Error("Advance to higher value reported no change")
	}
	if v.Advance(9, 1) {
		t.Error("Advance out of range reported change")
	}
	if got, want := v.String(), "[0 20 0]"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestVectorMergeAndCovers(t *testing.T) {
	a := Vector{5, 0, 3}
	b := Vector{2, 7, 3}
	a.Merge(b)
	if want := (Vector{5, 7, 3}); !reflect.DeepEqual(a, want) {
		t.Errorf("Merge = %v, want %v", a, want)
	}
	if !a.Covers(b) {
		t.Error("merged vector must cover operand")
	}
	if b.Covers(a) {
		t.Error("b should not cover a")
	}
	if !a.Covers(Vector{}) {
		t.Error("any vector covers the empty vector")
	}
	// Covers with longer operand and nonzero tail.
	if (Vector{1}).Covers(Vector{1, 2}) {
		t.Error("short vector cannot cover longer nonzero vector")
	}
}

func TestVectorCoversDeps(t *testing.T) {
	v := Vector{5, 2}
	if !v.CoversDeps([]core.Dep{{DC: 0, TOId: 5}, {DC: 1, TOId: 1}}) {
		t.Error("satisfied deps reported unsatisfied")
	}
	if v.CoversDeps([]core.Dep{{DC: 1, TOId: 3}}) {
		t.Error("unsatisfied dep reported satisfied")
	}
	if v.CoversDeps([]core.Dep{{DC: 7, TOId: 1}}) {
		t.Error("dep on unknown DC must be unsatisfied")
	}
	if !v.CoversDeps(nil) {
		t.Error("empty deps must be satisfied")
	}
}

func TestVectorDeps(t *testing.T) {
	v := Vector{0, 4, 0, 9}
	want := []core.Dep{{DC: 1, TOId: 4}, {DC: 3, TOId: 9}}
	if got := v.Deps(); !reflect.DeepEqual(got, want) {
		t.Errorf("Deps = %v, want %v", got, want)
	}
	if got := NewVector(2).Deps(); got != nil {
		t.Errorf("zero vector Deps = %v, want nil", got)
	}
}

func TestVectorBinaryRoundTrip(t *testing.T) {
	v := Vector{1, 0, 1 << 40}
	buf := v.AppendBinary(nil)
	got, used, err := DecodeVector(buf)
	if err != nil {
		t.Fatal(err)
	}
	if used != len(buf) || !reflect.DeepEqual(got, v) {
		t.Errorf("round trip: got %v (used %d), want %v (%d)", got, used, v, len(buf))
	}
	for n := 0; n < len(buf); n++ {
		if _, _, err := DecodeVector(buf[:n]); err == nil {
			t.Fatalf("accepted truncation to %d bytes", n)
		}
	}
}

func TestVectorMergeIdempotentCommutative(t *testing.T) {
	f := func(a, b []uint64) bool {
		if len(a) > 8 {
			a = a[:8]
		}
		if len(b) > 8 {
			b = b[:8]
		}
		// pad to same length for commutativity check
		n := len(a)
		if len(b) > n {
			n = len(b)
		}
		av, bv := NewVector(n), NewVector(n)
		copy(av, a)
		copy(bv, b)

		m1 := av.Clone()
		m1.Merge(bv)
		m2 := bv.Clone()
		m2.Merge(av)
		if !reflect.DeepEqual(m1, m2) {
			return false
		}
		m3 := m1.Clone()
		m3.Merge(bv) // idempotent
		return reflect.DeepEqual(m1, m3) && m1.Covers(av) && m1.Covers(bv)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestATableBasics(t *testing.T) {
	a := NewATable(0, 3)
	if a.Self() != 0 || a.N() != 3 {
		t.Fatalf("Self/N = %v/%d", a.Self(), a.N())
	}
	a.RecordApplied(1, 5)
	if got := a.Get(0, 1); got != 5 {
		t.Errorf("Get(0,1) = %d, want 5", got)
	}
	if !a.KnownBy(0, 1, 5) || a.KnownBy(0, 1, 6) {
		t.Error("KnownBy boundary wrong")
	}
	if got := a.SelfVector(); !reflect.DeepEqual(got, Vector{0, 5, 0}) {
		t.Errorf("SelfVector = %v", got)
	}
}

func TestATableGCSafe(t *testing.T) {
	a := NewATable(0, 2)
	a.Advance(0, 0, 3)
	if a.GCSafe(0, 1) {
		t.Error("record not yet known by DC1 reported GC-safe")
	}
	a.Advance(1, 0, 2)
	if !a.GCSafe(0, 2) {
		t.Error("record known everywhere not GC-safe")
	}
	if a.GCSafe(0, 3) {
		t.Error("record beyond DC1's knowledge reported GC-safe")
	}
	if got := a.GCFrontier(); !reflect.DeepEqual(got, Vector{2, 0}) {
		t.Errorf("GCFrontier = %v, want [2 0]", got)
	}
}

func TestATableMergeSnapshot(t *testing.T) {
	a := NewATable(0, 2)
	a.Advance(0, 0, 5)
	b := NewATable(1, 2)
	b.Advance(1, 0, 3)
	b.Advance(1, 1, 7)
	b.Advance(0, 0, 9) // B's (possibly stale or fresher) view of A

	if !a.MergeSnapshot(b.Snapshot()) {
		t.Error("a merge that raised the self row did not report it")
	}
	if a.MergeSnapshot(b.Snapshot()) {
		t.Error("merging the same snapshot again reported the self row rising")
	}
	b.Advance(1, 1, 8) // news about B's own row only
	if a.MergeSnapshot(b.Snapshot()) {
		t.Error("a merge that raised only a peer's row reported the self row rising")
	}
	if got := a.Get(1, 1); got != 8 {
		t.Errorf("merged [1][1] = %d, want 8", got)
	}
	if got := a.Get(0, 0); got != 9 {
		t.Errorf("merged self row = %d, want max(5,9)=9", got)
	}
}

func TestATableBinaryRoundTrip(t *testing.T) {
	a := NewATable(1, 3)
	a.Advance(0, 1, 4)
	a.Advance(2, 2, 8)
	buf := a.AppendBinary(nil)
	snap, used, err := DecodeATableSnapshot(buf)
	if err != nil {
		t.Fatal(err)
	}
	if used != len(buf) {
		t.Errorf("consumed %d of %d", used, len(buf))
	}
	if !reflect.DeepEqual(snap, a.Snapshot()) {
		t.Error("snapshot round trip mismatch")
	}
	if _, _, err := DecodeATableSnapshot(buf[:1]); err == nil {
		t.Error("accepted truncated table")
	}
}

func TestATableConcurrency(t *testing.T) {
	a := NewATable(0, 4)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(dc core.DCID) {
			defer func() { done <- struct{}{} }()
			for i := uint64(1); i <= 1000; i++ {
				a.RecordApplied(dc, i)
				a.GCSafe(dc, i)
				a.Snapshot()
			}
		}(core.DCID(g))
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	for dc := core.DCID(0); dc < 4; dc++ {
		if got := a.Get(0, dc); got != 1000 {
			t.Errorf("Get(0,%d) = %d, want 1000", dc, got)
		}
	}
}

func BenchmarkVectorCoversDeps(b *testing.B) {
	v := Vector{100, 200, 300, 400, 500}
	deps := []core.Dep{{DC: 0, TOId: 50}, {DC: 3, TOId: 400}}
	for i := 0; i < b.N; i++ {
		if !v.CoversDeps(deps) {
			b.Fatal("unexpected")
		}
	}
}

func BenchmarkATableSnapshotMerge(b *testing.B) {
	a := NewATable(0, 5)
	c := NewATable(1, 5)
	for i := core.DCID(0); i < 5; i++ {
		a.Advance(i, i, 100)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.MergeSnapshot(a.Snapshot())
	}
}
