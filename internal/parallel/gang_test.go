package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// gangModes are the two ways a Gang waits. NewGang picks the mode from
// its size against GOMAXPROCS, so each mode pins GOMAXPROCS before the
// gang is built: a gang that fits the processors spins before parking,
// an oversubscribed one parks at once.
var gangModes = []struct {
	name  string
	size  int
	procs int
}{
	{"spin", 2, 2},
	{"park", 4, 1},
}

// forEachMode runs body once per mode with GOMAXPROCS set for it, and
// checks that a gang of the mode's size really waits that way.
func forEachMode(t *testing.T, body func(t *testing.T, size int)) {
	for _, m := range gangModes {
		t.Run(m.name, func(t *testing.T) {
			prev := runtime.GOMAXPROCS(m.procs)
			t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
			g := NewGang(m.size, func(w, p int) {})
			if spins := g.spin > 0; spins != (m.name == "spin") {
				t.Fatalf("gang of %d at GOMAXPROCS %d: spin budget %d", m.size, m.procs, g.spin)
			}
			g.Close()
			body(t, m.size)
		})
	}
}

// waitGoroutines polls until the goroutine count is back to want, the
// count before a gang was built; a gang that strands a worker fails.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, want %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestGangRunsEveryWorkerEveryPhase(t *testing.T) {
	forEachMode(t, func(t *testing.T, n int) {
		hits := make([]int64, n)
		phases := make([][]int, n)
		g := NewGang(n, func(w, p int) {
			atomic.AddInt64(&hits[w], 1)
			// Only worker 0 runs on the calling goroutine, but phases are
			// barrier-separated, so appending under w is race-free.
			phases[w] = append(phases[w], p)
		})
		defer g.Close()
		for p := 0; p < 5; p++ {
			g.Run(p)
		}
		for w := 0; w < n; w++ {
			if hits[w] != 5 {
				t.Fatalf("worker %d ran %d phases, want 5", w, hits[w])
			}
			for p, got := range phases[w] {
				if got != p {
					t.Fatalf("worker %d phase order %v", w, phases[w])
				}
			}
		}
	})
}

// TestGangBarrier pins the happens-before contract: all of phase p's
// writes are visible to every worker in phase p+1.
func TestGangBarrier(t *testing.T) {
	forEachMode(t, func(t *testing.T, n int) {
		buf := make([]int, n)
		g := NewGang(n, func(w, p int) {
			if p%2 == 0 {
				buf[w] = p
				return
			}
			// Odd phases read every even-phase write.
			for i, v := range buf {
				if v != p-1 {
					t.Errorf("phase %d worker %d sees buf[%d]=%d", p, w, i, v)
					return
				}
			}
		})
		defer g.Close()
		for p := 0; p < 200; p++ {
			g.Run(p)
		}
	})
}

func TestGangPanicPropagates(t *testing.T) {
	forEachMode(t, func(t *testing.T, n int) {
		last := n - 1
		ran := make([]int64, n)
		g := NewGang(n, func(w, p int) {
			atomic.AddInt64(&ran[w], 1)
			if p == 0 && w == last {
				panic("shard invariant broken")
			}
		})
		defer g.Close()
		func() {
			defer func() {
				if r := recover(); r != "shard invariant broken" {
					t.Fatalf("recovered %v", r)
				}
			}()
			g.Run(0)
		}()
		// The gang must still be usable for the next phase after a panic.
		g.Run(1)
		for w, c := range ran {
			if c != 2 {
				t.Fatalf("worker %d ran %d phases across the panic, want 2", w, c)
			}
		}
	})
}

// TestGangParkWake sleeps between phases, past the spin budget (also
// under -race, where a poll is slower) and around it, so workers park
// and Run must wake them — including workers caught between giving up
// the spin and parking. A lost wake-up hangs
// the test; a doubled one runs a phase twice.
func TestGangParkWake(t *testing.T) {
	naps := []time.Duration{0, time.Microsecond, 50 * time.Microsecond, 300 * time.Microsecond, 10 * time.Millisecond}
	forEachMode(t, func(t *testing.T, n int) {
		var ran atomic.Int64
		g := NewGang(n, func(w, p int) { ran.Add(1) })
		defer g.Close()
		const phases = 250
		for p := 0; p < phases; p++ {
			time.Sleep(naps[p%len(naps)])
			g.Run(p)
			if got, want := ran.Load(), int64((p+1)*n); got != want {
				t.Fatalf("after phase %d: %d worker phases, want %d", p, got, want)
			}
		}
	})
}

// TestGangCloseReleasesWorkers: Close ends every spawned worker, whether
// it is still spinning right after a phase or already parked.
func TestGangCloseReleasesWorkers(t *testing.T) {
	forEachMode(t, func(t *testing.T, n int) {
		for _, state := range []string{"fresh", "spinning", "parked"} {
			t.Run(state, func(t *testing.T) {
				base := runtime.NumGoroutine()
				g := NewGang(n, func(w, p int) {})
				if state != "fresh" {
					g.Run(0)
				}
				if state == "parked" {
					for i := range g.wakers {
						for !g.wakers[i].parked.Load() {
							time.Sleep(10 * time.Microsecond)
						}
					}
				}
				g.Close()
				waitGoroutines(t, base)
			})
		}
	})
}

func TestGangOfOne(t *testing.T) {
	ran := 0
	g := NewGang(1, func(w, p int) {
		if w != 0 {
			t.Fatalf("worker %d in gang of 1", w)
		}
		ran++
	})
	g.Run(0)
	g.Run(1)
	g.Close()
	g.Close() // idempotent
	if ran != 2 {
		t.Fatalf("ran %d", ran)
	}
}

// BenchmarkGangPhase is the barrier round trip alone: an empty phase on a
// 2-worker gang, so ns/op is the hand-off plus the barrier. Its
// wall-clock depends on the core count (one core runs it in park mode),
// so the benchmark gate tracks only its allocations, which must be 0.
func BenchmarkGangPhase(b *testing.B) {
	g := NewGang(2, func(w, p int) {})
	defer g.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Run(i)
	}
}
