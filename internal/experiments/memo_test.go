package experiments

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"damq/internal/arbiter"
	"damq/internal/buffer"
	"damq/internal/netsim"
	"damq/internal/sw"
)

// memoScale is short enough to run every report section twice.
var memoScale = Scale{Warmup: 5, Measure: 30, Seed: 1988}

// memoEntries is the number of points the run memo holds.
func memoEntries() int {
	runs.mu.Lock()
	defer runs.mu.Unlock()
	return len(runs.entries)
}

// reportText renders every report section but Table 2 (an exact solve
// that never calls netRun) at sc, resetting the run memo before each
// section when isolated is set.
func reportText(t *testing.T, sc Scale, isolated bool) string {
	t.Helper()
	var b strings.Builder
	for _, s := range Sections(nil) {
		if s.Name == "table2" {
			continue
		}
		if isolated {
			resetRunMemo()
		}
		text, err := s.Run(sc, &Report{})
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		b.WriteString(text)
	}
	return b.String()
}

// TestRunMemoReport pins what the memo saves on the paper report: its
// sections make 180 netRun calls, of which 128 are distinct points, and
// the memo simulates each distinct point once without changing a byte
// of the report.
func TestRunMemoReport(t *testing.T) {
	resetRunMemo()
	shared := reportText(t, memoScale, false)
	if calls, sims := runs.calls.Load(), runs.sims.Load(); calls != 180 || sims != 128 {
		t.Errorf("report: %d netRun calls, %d simulations; want 180 and 128", calls, sims)
	}
	if n := memoEntries(); n != 128 {
		t.Errorf("memo holds %d points, want 128", n)
	}
	if isolated := reportText(t, memoScale, true); isolated != shared {
		t.Errorf("report differs when each section simulates afresh:\n--- memo ---\n%s\n--- fresh ---\n%s", shared, isolated)
	}
}

// cancelAfter is a context that reports itself cancelled from its
// (n+1)th Err call on, so a run is cut at a known stride boundary.
type cancelAfter struct {
	context.Context
	mu sync.Mutex
	n  int
}

func (c *cancelAfter) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n == 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

// memoRun is one saturated DAMQ point, the report's most repeated run.
func memoRun(sc Scale) (*netsim.Result, error) {
	return netRun(spec(buffer.DAMQ, sw.Blocking, arbiter.Smart, 4, uniform(1.0)), sc)
}

// TestRunMemoCancelledPointNotKept: a run cut short by its context
// leaves no entry, so the next call simulates the point in full.
func TestRunMemoCancelledPointNotKept(t *testing.T) {
	resetRunMemo()
	sc := Scale{Warmup: 300, Measure: 600, Seed: 5}
	sc.Ctx = &cancelAfter{Context: context.Background(), n: 2}
	if _, err := memoRun(sc); !errors.Is(err, context.Canceled) {
		t.Fatalf("cut run: err = %v, want context.Canceled", err)
	}
	if n, sims := memoEntries(), runs.sims.Load(); n != 0 || sims != 1 {
		t.Fatalf("after a cancelled run: %d entries, %d simulations; want 0 and 1", n, sims)
	}
	sc.Ctx = context.Background()
	r, err := memoRun(sc)
	if err != nil || r.Config.MeasureCycles != sc.Measure {
		t.Fatalf("live rerun: %v, %+v", err, r)
	}
	if n, sims := memoEntries(), runs.sims.Load(); n != 1 || sims != 2 {
		t.Fatalf("after the live rerun: %d entries, %d simulations; want 1 and 2", n, sims)
	}
	// A hit under a cancelled context fails as a fresh run would.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sc.Ctx = ctx
	if _, err := memoRun(sc); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled hit: err = %v, want context.Canceled", err)
	}
}

// TestRunMemoKey: a repeat of a call is a hit that returns the first
// call's Result; a call that differs in any field of its point or in
// its scale's seed, worker count or context computes the point again.
func TestRunMemoKey(t *testing.T) {
	resetRunMemo()
	base := Scale{Warmup: 50, Measure: 200, Seed: 9}
	workers := base
	workers.Workers = 2
	withCtx := base
	withCtx.Ctx = context.Background()
	reseeded := base
	reseeded.Seed++
	perm := func(shift int) netsim.TrafficSpec {
		tr := netsim.TrafficSpec{Kind: netsim.Permutation, Load: 0.5, Perm: make([]int, 64)}
		for i := range tr.Perm {
			tr.Perm[i] = (i + shift) % 64
		}
		return tr
	}
	dt := spec(buffer.DT, sw.Discarding, arbiter.Smart, 4, uniform(0.5))
	radix2, pooled, alpha, faulted := dt, dt, dt, dt
	radix2.cfg.Radix = 2
	pooled.cfg.SharedPool = true
	alpha.cfg.Sharing.Alpha = 2
	faulted.faults.LinkTransientRate = 1e-3
	damq := spec(buffer.DAMQ, sw.Blocking, arbiter.Smart, 4, uniform(1.0))
	calls := []struct {
		p  point
		sc Scale
	}{
		{damq, base}, {damq, workers}, {damq, withCtx}, {damq, reseeded},
		{dt, base}, {radix2, base}, {pooled, base}, {alpha, base}, {faulted, base},
		{spec(buffer.DAMQ, sw.Blocking, arbiter.Smart, 4, perm(1)), base},
		{spec(buffer.DAMQ, sw.Blocking, arbiter.Smart, 4, perm(2)), base},
	}
	first := make([]*netsim.Result, len(calls))
	for i, c := range calls {
		r, err := netRun(c.p, c.sc)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		first[i] = r
	}
	if sims := runs.sims.Load(); sims != int64(len(calls)) {
		t.Fatalf("%d distinct calls ran %d simulations", len(calls), sims)
	}
	for i, c := range calls {
		// A fresh Perm slice with the same contents is the same point.
		if c.p.cfg.Traffic.Kind == netsim.Permutation {
			c.p.cfg.Traffic = perm(c.p.cfg.Traffic.Perm[0])
		}
		r, err := netRun(c.p, c.sc)
		if err != nil || r != first[i] {
			t.Fatalf("repeat of call %d: %v, got a Result other than the first call's", i, err)
		}
	}
	if sims := runs.sims.Load(); sims != int64(len(calls)) {
		t.Fatalf("repeated calls simulated again: %d simulations", sims)
	}
	if !reflect.DeepEqual(first[0], first[1]) || !reflect.DeepEqual(first[0], first[2]) {
		t.Fatal("worker count or context changed a Result")
	}
}

// TestRunMemoConcurrent: goroutines asking for one point at once share
// a single simulation and its Result.
func TestRunMemoConcurrent(t *testing.T) {
	resetRunMemo()
	const n = 8
	sc := Scale{Warmup: 50, Measure: 300, Seed: 11}
	results := make([]*netsim.Result, n)
	var start, wg sync.WaitGroup
	start.Add(1)
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start.Wait()
			r, err := memoRun(sc)
			if err != nil {
				t.Error(err)
			}
			results[i] = r
		}()
	}
	start.Done()
	wg.Wait()
	if sims := runs.sims.Load(); sims != 1 {
		t.Fatalf("%d concurrent calls ran %d simulations, want 1", n, sims)
	}
	for i, r := range results {
		if r == nil || r != results[0] {
			t.Fatalf("caller %d got a different Result", i)
		}
	}
}

// TestRunMemoFailedComputation: when the computation a caller waits on
// fails or panics, the waiter is released and computes its own Result,
// which the memo then keeps.
func TestRunMemoFailedComputation(t *testing.T) {
	for _, panics := range []bool{false, true} {
		var m memo
		key := runKey{point: "p"}
		ctx := context.Background()
		started, release := make(chan struct{}), make(chan struct{})
		firstDone := make(chan error, 1)
		go func() {
			defer func() {
				if p := recover(); p != nil {
					firstDone <- errors.New("panicked")
				}
			}()
			_, err := m.do(ctx, key, func() (*netsim.Result, error) {
				close(started)
				<-release
				if panics {
					panic("run failed")
				}
				return nil, errors.New("run failed")
			})
			firstDone <- err
		}()
		<-started
		want := &netsim.Result{Delivered: 42}
		waiter := make(chan *netsim.Result, 1)
		go func() {
			r, err := m.do(ctx, key, func() (*netsim.Result, error) { return want, nil })
			if err != nil {
				t.Error(err)
			}
			waiter <- r
		}()
		close(release)
		if err := <-firstDone; err == nil {
			t.Fatalf("panics=%v: the failing computation reported no error", panics)
		}
		if r := <-waiter; r != want {
			t.Fatalf("panics=%v: waiter got %+v, want its own Result", panics, r)
		}
		r, err := m.do(ctx, key, func() (*netsim.Result, error) { return nil, errors.New("recomputed a kept point") })
		if err != nil || r != want {
			t.Fatalf("panics=%v: the waiter's Result was not kept: %v", panics, err)
		}
	}
}
