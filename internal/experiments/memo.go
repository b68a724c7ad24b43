package experiments

import (
	"context"
	"sync"
	"sync/atomic"

	"damq/internal/netsim"
)

// The paper report measures the same 64x64 network in many sections:
// Table 4, Figure 3, Table 5, the tail rows, Table 6, E8, the fault
// curve, the radix sweep and the ablations all revisit points another
// section already ran, the costly saturated ones most of all. A
// simulation is a pure function of its configuration and seed, so netRun
// keeps every completed Result in a process-wide memo and simulates each
// distinct point once per process.

// runKey identifies one netRun call: the %#v text of its point with the
// run length and seed filled in, so two calls share a key exactly when
// they build the same simulator from the same seed. The Scale's Workers
// and whether its Ctx is set are part of the key although neither
// changes a Result: a comparison of two ways of computing a point
// (serial against fanned out, a live context against none) therefore
// still computes both sides.
type runKey struct {
	point   string
	workers int
	hasCtx  bool
}

// memoEntry is one point. done closes when the point's first computation
// ends; res is then its Result, or nil if that computation failed, was
// cancelled or panicked.
type memoEntry struct {
	done chan struct{}
	res  *netsim.Result
}

// memo holds completed runs for the life of the process; a Result is
// about 33 KB, most of it the latency histogram. Cached Results are
// shared by every caller and must be treated as read-only.
type memo struct {
	mu      sync.Mutex
	entries map[runKey]*memoEntry
	// calls counts netRun calls and sims the simulations they started.
	calls, sims atomic.Int64
}

// runs is the memo netRun reads and fills.
var runs memo

// do returns the memoized Result for key, computing it with run if no
// caller has. Concurrent callers of one key wait for a single
// computation, and only a complete, error-free Result is kept: a waiter
// whose shared computation failed tries again, computing the point with
// its own run under its own context unless another waiter already is.
func (m *memo) do(ctx context.Context, key runKey, run func() (*netsim.Result, error)) (*netsim.Result, error) {
	// A fresh run under a cancelled context fails; so does a hit.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for {
		m.mu.Lock()
		e, ok := m.entries[key]
		if !ok {
			if m.entries == nil {
				m.entries = map[runKey]*memoEntry{}
			}
			e = &memoEntry{done: make(chan struct{})}
			m.entries[key] = e
		}
		m.mu.Unlock()
		if !ok {
			return m.fill(key, e, run)
		}
		select {
		case <-e.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if e.res != nil {
			return e.res, nil
		}
	}
}

// fill computes e's point. A failed, cancelled or panicking run leaves
// no entry behind, and the deferred close releases every waiter on all
// three paths.
func (m *memo) fill(key runKey, e *memoEntry, run func() (*netsim.Result, error)) (*netsim.Result, error) {
	defer func() {
		if e.res == nil {
			m.mu.Lock()
			delete(m.entries, key)
			m.mu.Unlock()
		}
		close(e.done)
	}()
	res, err := run()
	if err == nil {
		e.res = res
	}
	return res, err
}
