package arbiter

import (
	"reflect"
	"testing"

	"damq/internal/rng"
)

// clone2x2 builds an arbiter with the given cross-cycle state (priority
// pointer and stale counts) — the only state Arbitrate carries between
// cycles.
func clone2x2(policy Policy, prio int, stale [4]int64) *Arbiter {
	a := New(policy, 2, 2)
	a.prio = prio
	copy(a.stale, stale[:])
	return a
}

// stateOf snapshots the cross-cycle state for comparison.
func stateOf(a *Arbiter) (int, [4]int64) {
	return a.prio, [4]int64(a.stale)
}

// TestArbitrate2x2Exhaustive proves the branchless 2×2 path equivalent to
// the general scan by brute force: every combination of queue lengths,
// blocked flags, priority position, and a spread of stale counts, under
// both policies. Grants (values and order), the next priority pointer,
// and every stale counter must match exactly.
func TestArbitrate2x2Exhaustive(t *testing.T) {
	qlens := []int{0, 1, 3}
	stales := []int64{0, 2}
	var cases int
	for _, policy := range []Policy{Dumb, Smart} {
		for prio := 0; prio < 2; prio++ {
			var q [4]int
			for _, q00 := range qlens {
				for _, q01 := range qlens {
					for _, q10 := range qlens {
						for _, q11 := range qlens {
							q = [4]int{q00, q01, q10, q11}
							for blk := 0; blk < 16; blk++ {
								var s [4]int64
								for _, s00 := range stales {
									for _, s11 := range stales {
										s = [4]int64{s00, 1, 0, s11}
										cases++
										fast := clone2x2(policy, prio, s)
										ref := clone2x2(policy, prio, s)
										v := newTableView(2, 2)
										for i := 0; i < 2; i++ {
											for o := 0; o < 2; o++ {
												v.set(i, o, q[2*i+o])
												v.block(i, o, blk&(1<<(2*i+o)) != 0)
											}
										}
										gotG := fast.arbitrate2x2(&v.Snapshot, nil)
										wantG := ref.arbitrateGeneral(&v.Snapshot, nil)
										if !reflect.DeepEqual(gotG, wantG) {
											t.Fatalf("%v prio=%d q=%v blk=%04b stale=%v: grants %v, general %v",
												policy, prio, q, blk, s, gotG, wantG)
										}
										gotP, gotS := stateOf(fast)
										wantP, wantS := stateOf(ref)
										if gotP != wantP || gotS != wantS {
											t.Fatalf("%v prio=%d q=%v blk=%04b stale=%v: state (%d,%v), general (%d,%v)",
												policy, prio, q, blk, s, gotP, gotS, wantP, wantS)
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	if cases < 10000 {
		t.Fatalf("exhaustive sweep covered only %d cases", cases)
	}
}

// TestArbitrate2x2Trajectory runs paired arbiters through thousands of
// random cycles, the fast one dispatched through the public Arbitrate
// (which must select the 2×2 path: no metrics, single read ports), the
// reference pinned to the general scan. State carried across cycles —
// priority rotation and stale aging — must never diverge.
func TestArbitrate2x2Trajectory(t *testing.T) {
	for _, policy := range []Policy{Dumb, Smart} {
		src := rng.New(42 + uint64(policy))
		fast := New(policy, 2, 2)
		ref := New(policy, 2, 2)
		v := newTableView(2, 2)
		for step := 0; step < 5000; step++ {
			for i := 0; i < 2; i++ {
				for o := 0; o < 2; o++ {
					v.set(i, o, int(src.Intn(4)))
					v.block(i, o, src.Intn(3) == 0)
				}
			}
			gotG := fast.Arbitrate(&v.Snapshot, nil)
			wantG := ref.arbitrateGeneral(&v.Snapshot, nil)
			if !reflect.DeepEqual(gotG, wantG) {
				t.Fatalf("%v step %d: grants %v, general %v", policy, step, gotG, wantG)
			}
			gotP, gotS := stateOf(fast)
			wantP, wantS := stateOf(ref)
			if gotP != wantP || gotS != wantS {
				t.Fatalf("%v step %d: state (%d,%v), general (%d,%v)", policy, step, gotP, gotS, wantP, wantS)
			}
		}
	}
}

// TestArbitrate2x2AllocFree pins the fast path's allocation budget: with
// scratch warmed, repeated arbitration allocates nothing.
func TestArbitrate2x2AllocFree(t *testing.T) {
	a := New(Smart, 2, 2)
	v := newTableView(2, 2)
	v.set(0, 0, 2)
	v.set(1, 1, 1)
	dst := make([]Grant, 0, 2)
	avg := testing.AllocsPerRun(1000, func() {
		dst = a.Arbitrate(&v.Snapshot, dst[:0])
	})
	if avg != 0 {
		t.Fatalf("2x2 Arbitrate allocates %.3f allocs/op, want 0", avg)
	}
}
