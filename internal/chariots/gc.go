package chariots

// CollectGarbage applies the §6.1 rule: a record may be dropped only once
// every datacenter is known (per the Awareness Table) to have its host's
// records up to its TOId — on top of which deployments layer their own
// temporal/spatial policies. It reads the log by position above the
// datacenter's collected bound, extends the bound over the longest GC-safe
// run, trims that prefix from the maintainers — with, per host, the highest
// TOId it covers, which a restart numbers on from — and returns how many
// records were removed and the new bound (an LId).
//
// keepAfter, when nonzero, caps collection below that LId regardless of
// safety (the "system designer rule": e.g. retain the most recent N
// positions for readers).
func (dc *Datacenter) CollectGarbage(keepAfter uint64) (int, uint64, error) {
	dc.gc.mu.Lock()
	defer dc.gc.mu.Unlock()
	bound := dc.gc.bound

	head, err := dc.reader.HeadExact()
	if err != nil {
		return 0, bound, err
	}
	limit := head
	if keepAfter != 0 && keepAfter-1 < limit {
		limit = keepAfter - 1
	}
	if limit <= bound {
		return 0, bound, nil
	}
	window, err := dc.reader.ReadRange(bound+1, limit)
	if err != nil {
		return 0, bound, err
	}
	next, covered := bound, dc.gc.covered.Clone()
	for _, rec := range window {
		if !dc.state.atable.GCSafe(rec.Host, rec.TOId) {
			break
		}
		next = rec.LId
		covered.Advance(rec.Host, rec.TOId)
	}
	if next == bound {
		return 0, bound, nil
	}
	// Reads start above the bound from here on, so a maintainer whose trim
	// fails keeps garbage no read reaches; the next collection retries it.
	dc.gc.bound, dc.gc.covered = next, covered
	removed := 0
	for _, m := range dc.maintainers {
		n, err := m.Trim(next, covered.Deps())
		removed += n
		if err != nil {
			return removed, next, err
		}
	}
	return removed, next, nil
}
