package experiments

// resetRunMemo forgets every memoized run and zeroes the memo's counters,
// so the next netRun call of each point simulates again.
func resetRunMemo() {
	runs.mu.Lock()
	runs.entries = nil
	runs.mu.Unlock()
	runs.calls.Store(0)
	runs.sims.Store(0)
}
