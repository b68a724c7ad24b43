package arbiter

import (
	"reflect"
	"testing"

	"damq/internal/rng"
)

// clone2x2 builds an arbiter and the brute-force reference with the
// given cross-cycle state (priority pointer and stale counts) — the only
// state Arbitrate carries between cycles.
func clone2x2(policy Policy, prio int, stale [4]int64) (*Arbiter, *refState) {
	a := New(policy, 2, 2)
	a.prio = prio
	copy(a.stale, stale[:])
	r := newRefState(policy, 2)
	r.prio = prio
	copy(r.stale[0], stale[:2])
	copy(r.stale[1], stale[2:])
	return a, r
}

// stateOf snapshots the cross-cycle state for comparison.
func stateOf(a *Arbiter) (int, [4]int64) {
	return a.prio, [4]int64(a.stale)
}

// refStateOf is stateOf for the reference.
func refStateOf(r *refState) (int, [4]int64) {
	return r.prio, [4]int64{r.stale[0][0], r.stale[0][1], r.stale[1][0], r.stale[1][1]}
}

// singleReads is the read-port limit of two single-port buffers.
var singleReads = []int{1, 1}

// TestArbitrate2x2Exhaustive proves the mask scan on a 2×2 switch — the
// building block of binary multistage networks — equivalent to the
// brute-force reference: every combination of queue lengths,
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
										a, ref := clone2x2(policy, prio, s)
										v := newTableView(2, 2)
										for i := 0; i < 2; i++ {
											for o := 0; o < 2; o++ {
												v.set(i, o, q[2*i+o])
												v.block(i, o, blk&(1<<(2*i+o)) != 0)
											}
										}
										gotG := a.Arbitrate(&v.Snapshot, nil)
										rq, rb := v.tables()
										wantG := ref.arbitrate(rq, rb, singleReads)
										if len(gotG) != len(wantG) || (len(wantG) > 0 && !reflect.DeepEqual(gotG, wantG)) {
											t.Fatalf("%v prio=%d q=%v blk=%04b stale=%v: grants %v, reference %v",
												policy, prio, q, blk, s, gotG, wantG)
										}
										gotP, gotS := stateOf(a)
										wantP, wantS := refStateOf(ref)
										if gotP != wantP || gotS != wantS {
											t.Fatalf("%v prio=%d q=%v blk=%04b stale=%v: state (%d,%v), reference (%d,%v)",
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

// TestArbitrate2x2Trajectory runs a 2×2 arbiter and the brute-force
// reference through thousands of random cycles. State carried across
// cycles — priority rotation and stale aging — must never diverge.
func TestArbitrate2x2Trajectory(t *testing.T) {
	for _, policy := range []Policy{Dumb, Smart} {
		src := rng.New(42 + uint64(policy))
		a := New(policy, 2, 2)
		ref := newRefState(policy, 2)
		v := newTableView(2, 2)
		for step := 0; step < 5000; step++ {
			for i := 0; i < 2; i++ {
				for o := 0; o < 2; o++ {
					v.set(i, o, int(src.Intn(4)))
					v.block(i, o, src.Intn(3) == 0)
				}
			}
			gotG := a.Arbitrate(&v.Snapshot, nil)
			rq, rb := v.tables()
			wantG := ref.arbitrate(rq, rb, singleReads)
			if len(gotG) != len(wantG) || (len(wantG) > 0 && !reflect.DeepEqual(gotG, wantG)) {
				t.Fatalf("%v step %d: grants %v, reference %v", policy, step, gotG, wantG)
			}
			gotP, gotS := stateOf(a)
			wantP, wantS := refStateOf(ref)
			if gotP != wantP || gotS != wantS {
				t.Fatalf("%v step %d: state (%d,%v), reference (%d,%v)", policy, step, gotP, gotS, wantP, wantS)
			}
		}
	}
}

// TestArbitrate2x2AllocFree pins the scan's allocation budget: with the
// grant slice warmed, repeated arbitration allocates nothing.
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
