package parallel

import (
	"runtime"
	"sync/atomic"
)

// Gang is a fixed crew of worker goroutines driven in lockstep phases,
// built for sharded simulation stepping: the caller owns a static
// partition of the work (worker w always handles the same shard block)
// and repeatedly runs short phases separated by barriers. Unlike For/Map,
// a Gang never rebalances — determinism comes from the static assignment.
//
// The calling goroutine acts as worker 0, so a Gang of size n occupies
// exactly n goroutines during Run. Phases are totally ordered: every
// worker observes phase p complete (Run returns) before any worker starts
// phase p+1, which is the happens-before edge a sharded simulator needs
// between its route and inject phases.
//
// The barrier is a spin-then-park one built on two atomics, with no
// allocation and, while the workers keep up, no channel operation:
//
//   - Run publishes a phase by bumping a generation counter; each spawned
//     worker counts itself out of a pending counter when its share is done.
//   - A waiting worker polls the generation for spinPolls polls, then
//     parks on its own wake channel. Run sends a wake-up only to a worker
//     that has parked.
//   - The caller does not park: it polls the pending counter and calls
//     runtime.Gosched once per spin budget, so a woken worker queued
//     behind it on its processor gets to run.
//
// Keeping both sides awake is what lets the phases overlap on real cores:
// a worker woken through a channel is queued on the waker's processor and
// mostly runs only once the waker blocks, which serializes the phase.
// A gang larger than GOMAXPROCS cannot keep every member on a core, and
// spinning there only steals time from the members that have work, so an
// oversubscribed gang has a spin budget of 0 and every wait parks: its
// workers park as soon as they wait, and the caller parks on a done
// channel that the last worker out of the phase signals. (Yielding would
// not do for the caller there: Gosched requeues it on the global queue,
// and its processor picks it straight back up instead of stealing the
// workers queued on the other processors.)
//
// A panic in any worker's phase function is re-raised on the calling
// goroutine after all workers finish the phase (lowest worker index wins
// when several panic), so a simulation invariant failure inside a shard
// surfaces exactly like it would in a serial run.
type Gang struct {
	n    int
	run  func(worker, phase int)
	spin int // polls before a worker parks or the caller yields; 0 when oversubscribed

	// gen is the phase generation; Run and Close bump it to publish phase
	// or quit to the spawned workers. pending counts the spawned workers
	// still inside the current phase.
	gen     atomic.Uint64
	pending atomic.Int32

	phase  int           // the phase gen publishes; written only before a bump
	quit   bool          // set by Close before its bump; Run panics once it is set
	wakers []waker       // one per spawned worker (workers 1..n-1)
	done   chan struct{} // oversubscribed gangs: the last worker out wakes the caller
	rec    []any         // recovered panic per worker, reset each phase
}

// waker is one spawned worker's parking spot.
type waker struct {
	parked atomic.Bool
	ch     chan struct{} // capacity 1: whoever clears parked owes one token
}

// spinPolls is how many times a waiting worker polls the phase generation
// before it parks, and how many times the caller polls the pending count
// between yields. A poll is one atomic load, about 0.6 ns on a 2-vCPU
// Xeon, so the budget is roughly 150 µs: long enough to cover the
// caller's serial work between phases (its own share's imbalance, the
// per-cycle epilogue), short enough that an idle gang soon sleeps. On a
// 1024×1024 network stepped on 2 workers, workers park on about 3% of
// phases at this budget, 21% at 1<<14 and 11% at 1<<16.
const spinPolls = 1 << 18

// NewGang starts n-1 worker goroutines and returns the gang. run(w, p)
// executes phase p's work for worker w's static partition; it is invoked
// with w in [0, n) exactly once per Run call. n must be at least 1; a
// gang of 1 spawns nothing and Run degenerates to a direct call. Whether
// the gang spins is fixed here, from n against the current GOMAXPROCS.
func NewGang(n int, run func(worker, phase int)) *Gang {
	if n < 1 {
		panic("parallel: gang size must be at least 1")
	}
	g := &Gang{
		n:      n,
		run:    run,
		spin:   spinPolls,
		wakers: make([]waker, n-1),
		rec:    make([]any, n),
	}
	if n > runtime.GOMAXPROCS(0) {
		g.spin = 0
		g.done = make(chan struct{}, 1)
	}
	for w := 1; w < n; w++ {
		g.wakers[w-1].ch = make(chan struct{}, 1)
		go g.loop(w)
	}
	return g
}

// Size returns the gang's worker count (including the caller).
func (g *Gang) Size() int { return g.n }

// loop is a spawned worker's life: wait for the generation to move, run
// the phase it publishes, count out; exit when Close publishes quit.
// damqvet:hotpath
func (g *Gang) loop(w int) {
	k := &g.wakers[w-1]
	var seen uint64
	for {
		seen = g.await(k, seen)
		if g.quit {
			return
		}
		g.call(w, g.phase)
		if g.pending.Add(-1) == 0 && g.spin == 0 {
			g.done <- struct{}{}
		}
	}
}

// await returns the first generation after seen: it spins for the gang's
// budget, then parks until Run or Close wakes it. Parking is a Dekker
// handshake with wakeParked — the worker sets parked and re-reads gen,
// the waker bumps gen and reads parked — so at least one side sees the
// other, and the CAS on parked decides which side that was: a worker that
// wins it leaves without sleeping, one that loses it consumes the token
// the waker sends. A token can arrive late: a Run delayed between its
// bump and its wakeParked may find the worker already done with that
// phase and parked for the next one. So a woken worker re-reads gen and
// parks again if it has not moved.
func (g *Gang) await(k *waker, seen uint64) uint64 {
	for i := 0; i < g.spin; i++ {
		if gen := g.gen.Load(); gen != seen {
			return gen
		}
	}
	for {
		k.parked.Store(true)
		if gen := g.gen.Load(); gen != seen && k.parked.CompareAndSwap(true, false) {
			return gen
		}
		<-k.ch
		if gen := g.gen.Load(); gen != seen {
			return gen
		}
	}
}

// wakeParked sends a wake-up to every worker parked since the last bump
// of gen. Call it after the bump.
func (g *Gang) wakeParked() {
	for i := range g.wakers {
		if k := &g.wakers[i]; k.parked.Load() && k.parked.CompareAndSwap(true, false) {
			k.ch <- struct{}{}
		}
	}
}

// call runs one worker's phase under a recover so a shard panic does not
// kill the process from a worker goroutine (it is re-raised by Run).
func (g *Gang) call(w, phase int) {
	defer g.recoverInto(w)
	g.rec[w] = nil
	g.run(w, phase)
}

// recoverInto records a panic raised by worker w's phase function. It
// must be the deferred function itself (not wrapped in a literal) for
// recover to see the panic; deferring the bound method also keeps the
// phase hot path free of a closure allocation.
func (g *Gang) recoverInto(w int) {
	if r := recover(); r != nil {
		g.rec[w] = r
	}
}

// Run executes phase on every worker and returns when all have finished —
// the barrier between simulation phases. The caller executes worker 0's
// share itself. Run must not be called after Close, nor concurrently.
// damqvet:hotpath
func (g *Gang) Run(phase int) {
	if g.quit {
		panic("parallel: Run on a closed gang")
	}
	g.phase = phase
	g.pending.Store(int32(g.n - 1))
	g.gen.Add(1)
	g.wakeParked()
	g.call(0, phase)
	if g.spin == 0 {
		<-g.done
	} else {
		for polls := 0; g.pending.Load() != 0; {
			if polls++; polls > g.spin {
				runtime.Gosched()
				polls = 0
			}
		}
	}
	for w := 0; w < g.n; w++ {
		if r := g.rec[w]; r != nil {
			panic(r)
		}
	}
}

// Close releases the spawned worker goroutines, spinning or parked.
// Idempotent; after Close the gang cannot Run again (callers fall back to
// a serial loop, which by the determinism contract computes identical
// results).
func (g *Gang) Close() {
	if g.quit {
		return
	}
	g.quit = true
	g.gen.Add(1)
	g.wakeParked()
}
