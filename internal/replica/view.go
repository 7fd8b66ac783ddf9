package replica

import (
	"math"
	"sync/atomic"
)

// View is what appends steer by: the head of the log waits on the range
// with the lowest next-unfilled position (§5.4). It is a hint — every range
// is a correct target, so a stale entry costs delivery latency, never an LId.
type View struct {
	next   []atomic.Uint64 // highest next-unfilled LId of each range a reply showed
	flying []atomic.Int64  // records sent to each range whose reply is still out
	// partial counts down the append replies until the view is trusted
	// again after a reply showed positions no append steering by it made:
	// its lowest entry may be filled already (pick).
	partial  atomic.Int32
	sessions atomic.Uint64 // sessions steering by the view; each starts its cursor one on
}

// partialReplies is how many append replies in a row must show no unseen
// appender before a partial view is trusted again. While another appender
// is as busy as the view's own sessions, about every other reply shows it,
// so a quiet run of 16 means it has most likely stopped.
const partialReplies = 16

// NewView returns an unseen view of width ranges.
func NewView(width int) *View {
	return &View{next: make([]atomic.Uint64, width), flying: make([]atomic.Int64, width)}
}

// SteerBy has the session steer its appends by v, shared with every other
// session steering by v; a view of another width is ignored. Call it before
// the session's first append.
func (s *Session) SteerBy(v *View) {
	if len(v.next) == s.cfg.Layout.N {
		s.view = v
		s.rr.Store(v.sessions.Add(1) - 1)
	}
}

// pick returns the range for an n-record append: among ranges with a usable
// acting primary, the lowest entry counting records in flight. Ties rotate
// from the cursor, so an unseen view is round robin. A partial view ties
// every range within n·N LIds (about n positions of a range) of the lowest,
// which keeps sessions that cannot see each other's appends in step as round
// robin does; each sent to its own lowest entry, both would take the range
// the other just filled.
func (s *Session) pick(n int) int {
	v, w := s.view, len(s.view.next)
	at := func(r int) uint64 { return v.next[r].Load() + uint64(v.flying[r].Load()) }
	lo := uint64(math.MaxUint64)
	for r := range w {
		if _, ok := s.ActingPrimary(r); ok {
			lo = min(lo, at(r))
		}
	}
	if v.partial.Load() > 0 {
		lo += uint64(n * w)
	}
	c := int(s.rr.Load() % uint64(w))
	for i := range w {
		if r := (c + i) % w; at(r) <= lo {
			if _, ok := s.ActingPrimary(r); ok {
				c = r
				break
			}
		}
	}
	s.rr.Store(uint64(c + 1))
	return c
}

// observe folds a frontier vector of the view's width into it. appended is
// the range the reply's own append went to (−1 for none); any other range
// that moved with nothing in flight there moved by an unseen appender.
func (s *Session) observe(appended int, vec []uint64) {
	v := s.view
	if len(vec) != len(v.next) {
		return
	}
	unseen := false
	for r, f := range vec {
		old := v.next[r].Load()
		unseen = unseen || r != appended && old != 0 && f > old && v.flying[r].Load() == 0
		for ; f > old && !v.next[r].CompareAndSwap(old, f); old = v.next[r].Load() {
		}
	}
	if unseen {
		v.partial.Store(partialReplies)
	} else if appended >= 0 && v.partial.Load() > 0 {
		v.partial.Add(-1)
	}
}
