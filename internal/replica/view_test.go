package replica

import (
	"testing"

	"repro/internal/core"
)

func oneRec() []*core.Record { return []*core.Record{{Body: []byte("x")}} }

// rangeOf is the fakes' placement: range r owns LIds r+1, r+1+N, ….
func rangeOf(lid uint64, n int) int { return int((lid - 1) % uint64(n)) }

// viewOfSession reads the session's view as plain values.
func viewOfSession(s *Session) []uint64 {
	out := make([]uint64, len(s.view.next))
	for r := range s.view.next {
		out[r] = s.view.next[r].Load()
	}
	return out
}

// TestAppendPicksLowestFrontier: the range whose frontier pins the head of
// the log gets the batch, wherever the cursor stands.
func TestAppendPicksLowestFrontier(t *testing.T) {
	for c := uint64(0); c < 3; c++ {
		s, _ := buildSession(t, 3, 3, AckMajority, 2)
		s.rr.Store(c)
		s.observe(-1, []uint64{40, 7, 90})
		lids, err := s.Append(oneRec())
		if err != nil {
			t.Fatal(err)
		}
		if r := rangeOf(lids[0], 3); r != 1 {
			t.Errorf("cursor %d: append went to range %d, want 1 (lowest frontier)", c, r)
		}
	}
}

// TestPickTiesRotate: level ranges take turns from the session's cursor.
func TestPickTiesRotate(t *testing.T) {
	s, _ := buildSession(t, 3, 3, AckMajority, 2)
	s.observe(-1, []uint64{9, 9, 9})
	first := s.pick(0)
	for i := 1; i < 6; i++ {
		if got, want := s.pick(0), (first+i)%3; got != want {
			t.Fatalf("pick %d = range %d, want %d (rotation from %d)", i, got, want, first)
		}
	}
}

// TestUnseenViewIsRoundRobin: members whose replies carry no vector leave
// the view unseen, and appends go round robin from the cursor.
func TestUnseenViewIsRoundRobin(t *testing.T) {
	s, fakes := buildSession(t, 3, 3, AckMajority, 2)
	for _, f := range fakes {
		f.vec = 0
	}
	s.rr.Store(1)
	for i := 0; i < 6; i++ {
		lids, err := s.Append(oneRec())
		if err != nil {
			t.Fatal(err)
		}
		if got, want := rangeOf(lids[0], 3), (1+i)%3; got != want {
			t.Fatalf("append %d went to range %d, want %d", i, got, want)
		}
	}
}

// TestPickSkipsRangeWithoutActingPrimary: the lowest range is passed over
// while its whole group is evicted.
func TestPickSkipsRangeWithoutActingPrimary(t *testing.T) {
	s, fakes := buildSession(t, 3, 1, AckOne, 1)
	s.observe(-1, []uint64{1, 50, 60})
	fakes[0].setDown(true)
	s.Health().ReportFailure(0)
	lids, err := s.Append(oneRec())
	if err != nil {
		t.Fatal(err)
	}
	if r := rangeOf(lids[0], 3); r != 1 {
		t.Fatalf("append went to range %d, want 1 (range 0 has no usable member)", r)
	}
}

// TestSteeredAppendFailsOverWithinRange: when the lowest range's owner is
// down, the batch still lands in that range through its next group member
// before any other range is tried.
func TestSteeredAppendFailsOverWithinRange(t *testing.T) {
	s, fakes := buildSession(t, 3, 3, AckMajority, 1)
	s.observe(-1, []uint64{50, 2, 60})
	fakes[1].setDown(true)
	lids, err := s.Append(oneRec())
	if err != nil {
		t.Fatal(err)
	}
	if r := rangeOf(lids[0], 3); r != 1 {
		t.Fatalf("append went to range %d, want 1 via its follower", r)
	}
	if ap, _ := s.ActingPrimary(1); ap != 2 {
		t.Fatalf("range 1's acting primary = %d, want 2", ap)
	}
}

// TestStaleLowEntryCorrectedByOneAppend: a view entry below the range's
// real frontier draws one append, whose reply restores it exactly.
func TestStaleLowEntryCorrectedByOneAppend(t *testing.T) {
	s, fakes := buildSession(t, 3, 3, AckMajority, 2)
	for i := 0; i < 4; i++ {
		if _, err := s.AppendRange(0, oneRec()); err != nil {
			t.Fatal(err)
		}
	}
	s.view.next[0].Store(1) // stale: range 0 has five slots filled after the next append
	lids, err := s.Append(oneRec())
	if err != nil {
		t.Fatal(err)
	}
	if r := rangeOf(lids[0], 3); r != 0 {
		t.Fatalf("append went to range %d, want 0 (the stale-low entry)", r)
	}
	want, _ := fakes[0].RangeFrontier(0)
	if got := s.view.next[0].Load(); got != want {
		t.Fatalf("view[0] = %d after one append, want the real frontier %d", got, want)
	}
}

// TestObserveRefusesOtherWidths: a vector from a member of a narrower
// placement does not touch the view.
func TestObserveRefusesOtherWidths(t *testing.T) {
	s, fakes := buildSession(t, 3, 3, AckMajority, 2)
	for _, f := range fakes {
		f.vec = 2
	}
	if _, err := s.Append(oneRec()); err != nil {
		t.Fatal(err)
	}
	s.observe(-1, []uint64{100, 200})
	if got := viewOfSession(s); got[0]+got[1]+got[2] != 0 {
		t.Fatalf("view = %v after 2-wide vectors, want unseen", got)
	}
}

// TestPickCountsRecordsInFlight: records sent to a range and not yet
// answered count as filled there, so a concurrent append goes elsewhere.
func TestPickCountsRecordsInFlight(t *testing.T) {
	s, _ := buildSession(t, 3, 3, AckMajority, 2)
	s.observe(-1, []uint64{8, 12, 30})
	s.view.flying[0].Add(10)
	if got := s.pick(4); got != 1 {
		t.Fatalf("pick = range %d, want 1 (range 0 has 10 records in flight)", got)
	}
}

// TestUnseenAppendsMakeViewPartial: a reply that shows another range moved,
// with nothing in flight there, means an appender the view does not see.
func TestUnseenAppendsMakeViewPartial(t *testing.T) {
	s, _ := buildSession(t, 3, 3, AckMajority, 2)
	s.observe(-1, []uint64{5, 9, 17})
	s.observe(0, []uint64{9, 9, 17}) // the session's own append to range 0
	s.view.flying[1].Add(4)
	s.observe(0, []uint64{13, 13, 17}) // range 1 moved under an append in flight
	if s.view.partial.Load() > 0 {
		t.Fatal("view partial after moves its own appends account for")
	}
	s.view.flying[1].Add(-4)
	s.observe(0, []uint64{17, 13, 21}) // range 2 moved with nothing in flight
	if s.view.partial.Load() == 0 {
		t.Fatal("view not partial after a move no append through it made")
	}
	// Trusted again after a quiet run of append replies.
	for i := uint64(0); i < partialReplies; i++ {
		s.observe(0, []uint64{21 + 4*i, 13, 21})
	}
	if s.view.partial.Load() != 0 {
		t.Fatalf("view still partial after %d quiet replies", partialReplies)
	}
}

// TestPartialViewTiesWithinABatch: a partial view ties the ranges within
// n·N LIds of the lowest entry and rotates among them from the cursor, as
// round robin would; a complete view sends the batch to the lowest.
func TestPartialViewTiesWithinABatch(t *testing.T) {
	s, _ := buildSession(t, 3, 3, AckMajority, 2)
	s.observe(-1, []uint64{8, 12, 30})
	for c, want := range []int{0, 0, 0} {
		s.rr.Store(uint64(c))
		if got := s.pick(4); got != want {
			t.Errorf("complete view, cursor %d: pick = %d, want %d", c, got, want)
		}
	}
	s.view.partial.Store(partialReplies)
	for c, want := range []int{0, 1, 0} { // range 2 is 22 past the lowest, beyond 4·3
		s.rr.Store(uint64(c))
		if got := s.pick(4); got != want {
			t.Errorf("partial view, cursor %d: pick = %d, want %d", c, got, want)
		}
	}
}

// TestSessionsSteerBySharedView: sessions steering by one view see each
// other's observations and start their cursors apart; a session keeps its
// own view when handed one of another width.
func TestSessionsSteerBySharedView(t *testing.T) {
	a, _ := buildSession(t, 3, 3, AckMajority, 2)
	b, _ := buildSession(t, 3, 3, AckMajority, 2)
	own, _ := buildSession(t, 3, 3, AckMajority, 2)
	shared := NewView(3)
	a.SteerBy(shared)
	b.SteerBy(shared)
	own.SteerBy(NewView(2))
	a.observe(-1, []uint64{5, 6, 7})
	if got := viewOfSession(b); got[0] != 5 || got[2] != 7 {
		t.Fatalf("b's view = %v, want a's observation", got)
	}
	if got := viewOfSession(own); got[0] != 0 {
		t.Fatalf("own view = %v, want untouched", got)
	}
	if a.rr.Load() == b.rr.Load() {
		t.Fatalf("cursors a %d, b %d: want them apart", a.rr.Load(), b.rr.Load())
	}
}
