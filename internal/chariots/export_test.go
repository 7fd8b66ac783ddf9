package chariots

import "time"

// SetTableAntiEntropy moves the senders' anti-entropy tick, so tests of the
// tiers built on the log (package chariots_test) can put it out of reach
// and show they depend on change-driven table shipping alone. Call before
// Start.
func (dc *Datacenter) SetTableAntiEntropy(d time.Duration) {
	for _, s := range dc.senders {
		s.antiEntropy = d
	}
}
