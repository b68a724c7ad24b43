package arbiter

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"damq/internal/obs"
	"damq/internal/rng"
)

// refState is the brute-force reference arbiter: the paper's rules
// written out directly over plain tables, with candidate selection done
// by sorting every eligible queue rather than by the incremental scan.
type refState struct {
	policy Policy
	prio   int
	stale  [][]int64
	// counts of what an observed arbiter reports
	grants, conflicts, blocked int64
}

func newRefState(policy Policy, n int) *refState {
	r := &refState{policy: policy, stale: make([][]int64, n)}
	for i := range r.stale {
		r.stale[i] = make([]int64, n)
	}
	return r
}

// arbitrate runs one cycle over queue lengths q, blocked flags blk and
// read limits reads, all indexed [in][out].
func (r *refState) arbitrate(q [][]int, blk [][]bool, reads []int) []Grant {
	n := len(q)
	taken := make([]bool, n)
	var grants []Grant
	first := -1 // first input served
	for k := 0; k < n; k++ {
		i := (r.prio + k) % n
		total := 0
		for _, l := range q[i] {
			total += l
		}
		if total == 0 {
			continue
		}
		sent := make([]bool, n)
		for round := 0; round < reads[i]; round++ {
			var eligible []int
			for o := 0; o < n; o++ {
				switch {
				case taken[o]:
					if q[i][o] > 0 {
						r.conflicts++
					}
				case q[i][o] == 0:
				case blk[i][o]:
					r.blocked++
				default:
					eligible = append(eligible, o)
				}
			}
			if len(eligible) == 0 {
				break
			}
			// Smart: stalest first; then longest queue; then lowest output.
			sort.SliceStable(eligible, func(x, y int) bool {
				a, b := eligible[x], eligible[y]
				if r.policy == Smart && r.stale[i][a] != r.stale[i][b] {
					return r.stale[i][a] > r.stale[i][b]
				}
				return q[i][a] > q[i][b]
			})
			o := eligible[0]
			taken[o], sent[o] = true, true
			grants = append(grants, Grant{In: i, Out: o})
			r.grants++
			if first == -1 {
				first = i
			}
		}
		for o := 0; o < n; o++ {
			if q[i][o] > 0 && !sent[o] {
				r.stale[i][o]++
			} else {
				r.stale[i][o] = 0
			}
		}
	}
	holderBusy := false
	for _, l := range q[r.prio] {
		holderBusy = holderBusy || l > 0
	}
	switch {
	case r.policy == Dumb:
		r.prio = (r.prio + 1) % n
	case holderBusy && first != r.prio:
		// Smart: a blocked holder keeps its turn.
	case first >= 0:
		r.prio = (first + 1) % n
	default:
		r.prio = (r.prio + 1) % n
	}
	return grants
}

// tables copies the view into the reference's [in][out] queue and
// blocked tables.
func (v *tableView) tables() ([][]int, [][]bool) {
	n := len(v.Busy)
	q := make([][]int, n)
	blk := make([][]bool, n)
	for i := range q {
		q[i] = append([]int(nil), v.QueueLen[i*v.out:(i+1)*v.out]...)
		blk[i] = append([]bool(nil), v.blocked[i*v.out:(i+1)*v.out]...)
	}
	return q, blk
}

// TestArbitrateMatchesReference drives the arbiter and the brute-force
// reference through random cycles of 3×3 and 4×4 switches — both
// policies, single and full read ports, with and without counters —
// and requires identical grants, priority pointers, stale counters and
// grant/conflict/blocked counts after every cycle.
func TestArbitrateMatchesReference(t *testing.T) {
	for _, n := range []int{3, 4} {
		for _, policy := range []Policy{Dumb, Smart} {
			for _, reads := range []int{1, n} {
				for _, counted := range []bool{false, true} {
					name := fmt.Sprintf("%dx%d/%v/reads=%d/counters=%v", n, n, policy, reads, counted)
					t.Run(name, func(t *testing.T) {
						checkAgainstReference(t, n, policy, reads, counted)
					})
				}
			}
		}
	}
}

func checkAgainstReference(t *testing.T, n int, policy Policy, reads int, counted bool) {
	seed := uint64(n)<<8 | uint64(policy)<<4 | uint64(reads)
	if counted {
		seed |= 1 << 12
	}
	src := rng.New(seed)
	a := New(policy, n, n)
	var cg, cc, cb obs.Counter
	if counted {
		a.SetMetrics(&cg, &cc, &cb)
	}
	ref := newRefState(policy, n)
	v := newTableView(n, n)
	q := make([][]int, n)
	blk := make([][]bool, n)
	readLimits := make([]int, n)
	for i := range q {
		q[i] = make([]int, n)
		blk[i] = make([]bool, n)
		readLimits[i] = reads
		v.MaxReads[i] = reads
	}
	var dst []Grant
	for step := 0; step < 3000; step++ {
		// Sparse enough that empty rows and idle rounds occur often.
		for i := 0; i < n; i++ {
			for o := 0; o < n; o++ {
				l := 0
				if src.Intn(3) == 0 {
					l = 1 + src.Intn(3)
				}
				q[i][o] = l
				blk[i][o] = src.Intn(4) == 0
				v.set(i, o, l)
				v.block(i, o, blk[i][o])
			}
		}
		dst = a.Arbitrate(&v.Snapshot, dst[:0])
		want := ref.arbitrate(q, blk, readLimits)
		if len(dst) != len(want) || (len(want) > 0 && !reflect.DeepEqual(dst, want)) {
			t.Fatalf("step %d: grants %v, reference %v", step, dst, want)
		}
		if a.prio != ref.prio {
			t.Fatalf("step %d: priority %d, reference %d", step, a.prio, ref.prio)
		}
		for i := 0; i < n; i++ {
			for o := 0; o < n; o++ {
				if a.Stale(i, o) != ref.stale[i][o] {
					t.Fatalf("step %d: stale(%d,%d) = %d, reference %d", step, i, o, a.Stale(i, o), ref.stale[i][o])
				}
			}
		}
		if counted && (cg.Value() != ref.grants || cc.Value() != ref.conflicts || cb.Value() != ref.blocked) {
			t.Fatalf("step %d: counters grants/conflicts/blocked %d/%d/%d, reference %d/%d/%d",
				step, cg.Value(), cc.Value(), cb.Value(), ref.grants, ref.conflicts, ref.blocked)
		}
	}
}
