package arbiter

import (
	"fmt"
	"testing"
	"testing/quick"

	"damq/internal/rng"
)

// tableView is a scriptable snapshot for tests: set and block edit the
// queue and blocked tables and keep the row's Busy and Ready masks in
// step.
type tableView struct {
	Snapshot
	out     int
	blocked []bool // [in*out+o]
}

func newTableView(in, out int) *tableView {
	return &tableView{Snapshot: NewSnapshot(in, out), out: out, blocked: make([]bool, in*out)}
}

func (v *tableView) queue(i, o int) int { return v.QueueLen[i*v.out+o] }
func (v *tableView) set(i, o, n int) {
	v.QueueLen[i*v.out+o] = n
	v.sync(i)
}
func (v *tableView) block(i, o int, b bool) {
	v.blocked[i*v.out+o] = b
	v.sync(i)
}

// sync rebuilds input i's masks from its rows of the two tables.
func (v *tableView) sync(i int) {
	var busy, ready uint64
	for o := 0; o < v.out; o++ {
		if v.queue(i, o) > 0 {
			busy |= 1 << o
			if !v.blocked[i*v.out+o] {
				ready |= 1 << o
			}
		}
	}
	v.Busy[i], v.Ready[i] = busy, ready
}

func TestPolicyString(t *testing.T) {
	if Dumb.String() != "dumb" || Smart.String() != "smart" {
		t.Fatal("policy names wrong")
	}
	if Policy(7).String() != "Policy(7)" {
		t.Fatal("unknown policy name wrong")
	}
}

func TestParsePolicy(t *testing.T) {
	if p, err := ParsePolicy("smart"); err != nil || p != Smart {
		t.Fatal("parse smart failed")
	}
	if p, err := ParsePolicy("dumb"); err != nil || p != Dumb {
		t.Fatal("parse dumb failed")
	}
	if _, err := ParsePolicy("clever"); err == nil {
		t.Fatal("parse of bad policy succeeded")
	}
}

func TestLongestQueueWins(t *testing.T) {
	a := New(Dumb, 4, 4)
	v := newTableView(4, 4)
	v.set(0, 1, 2)
	v.set(0, 3, 5) // longest
	grants := a.Arbitrate(&v.Snapshot, nil)
	if len(grants) != 1 || grants[0] != (Grant{In: 0, Out: 3}) {
		t.Fatalf("grants = %v", grants)
	}
}

func TestOneGrantPerOutput(t *testing.T) {
	a := New(Dumb, 4, 4)
	v := newTableView(4, 4)
	for i := 0; i < 4; i++ {
		v.set(i, 2, 1) // everyone wants output 2
	}
	grants := a.Arbitrate(&v.Snapshot, nil)
	if len(grants) != 1 {
		t.Fatalf("output 2 granted %d times", len(grants))
	}
}

func TestOneGrantPerSingleReadBuffer(t *testing.T) {
	a := New(Dumb, 4, 4)
	v := newTableView(4, 4)
	v.set(0, 0, 1)
	v.set(0, 1, 1)
	v.set(0, 2, 1)
	grants := a.Arbitrate(&v.Snapshot, nil)
	if len(grants) != 1 {
		t.Fatalf("single-read buffer got %d grants", len(grants))
	}
}

func TestSAFCMultiRead(t *testing.T) {
	a := New(Dumb, 4, 4)
	v := newTableView(4, 4)
	v.MaxReads[0] = 4
	v.set(0, 0, 1)
	v.set(0, 1, 1)
	v.set(0, 2, 1)
	grants := a.Arbitrate(&v.Snapshot, nil)
	if len(grants) != 3 {
		t.Fatalf("multi-read buffer got %d grants, want 3", len(grants))
	}
	outs := map[int]bool{}
	for _, g := range grants {
		if g.In != 0 || outs[g.Out] {
			t.Fatalf("bad grants %v", grants)
		}
		outs[g.Out] = true
	}
}

func TestBlockedQueueSkipped(t *testing.T) {
	a := New(Dumb, 2, 2)
	v := newTableView(2, 2)
	v.set(0, 0, 5)
	v.set(0, 1, 1)
	v.block(0, 0, true)
	grants := a.Arbitrate(&v.Snapshot, nil)
	if len(grants) != 1 || grants[0].Out != 1 {
		t.Fatalf("grants = %v, want the unblocked queue", grants)
	}
}

func TestNothingEligible(t *testing.T) {
	a := New(Smart, 2, 2)
	v := newTableView(2, 2)
	v.set(0, 0, 3)
	v.block(0, 0, true)
	if grants := a.Arbitrate(&v.Snapshot, nil); len(grants) != 0 {
		t.Fatalf("grants = %v, want none", grants)
	}
}

func TestDumbRoundRobinRotates(t *testing.T) {
	a := New(Dumb, 2, 2)
	v := newTableView(2, 2)
	// Both inputs always want output 0; dumb RR must alternate winners.
	v.set(0, 0, 1)
	v.set(1, 0, 1)
	winners := []int{}
	for c := 0; c < 4; c++ {
		g := a.Arbitrate(&v.Snapshot, nil)
		if len(g) != 1 {
			t.Fatalf("cycle %d: %v", c, g)
		}
		winners = append(winners, g[0].In)
	}
	want := []int{0, 1, 0, 1}
	for i := range want {
		if winners[i] != want[i] {
			t.Fatalf("winners = %v, want %v", winners, want)
		}
	}
}

func TestSmartPriorityNotCountedWhenBlocked(t *testing.T) {
	// Input 0 has priority but is fully blocked; with smart arbitration it
	// must keep priority next cycle (its turn is not counted).
	a := New(Smart, 2, 2)
	v := newTableView(2, 2)
	v.set(0, 0, 1)
	v.block(0, 0, true)
	v.set(1, 1, 1)
	g := a.Arbitrate(&v.Snapshot, nil)
	if len(g) != 1 || g[0].In != 1 {
		t.Fatalf("cycle 0 grants = %v", g)
	}
	// Unblock input 0: it should win output 0 immediately and input 1
	// should also win output 1 (different outputs).
	v.block(0, 0, false)
	g = a.Arbitrate(&v.Snapshot, nil)
	if len(g) != 2 {
		t.Fatalf("cycle 1 grants = %v", g)
	}
	if g[0].In != 0 {
		t.Fatalf("input 0 did not retain priority: %v", g)
	}
}

func TestSmartEmptyHolderDoesNotRetainPriority(t *testing.T) {
	// Input 0 holds priority but is EMPTY: its turn is forfeited, not
	// retained — otherwise a quiet buffer would pin the priority pointer
	// and the next buffer in order would win every contested output
	// indefinitely (the starvation bug this test pins down).
	a := New(Smart, 3, 3)
	v := newTableView(3, 3)
	v.set(1, 0, 1)
	v.set(2, 0, 1)
	winners := map[int]int{}
	for c := 0; c < 40; c++ {
		g := a.Arbitrate(&v.Snapshot, nil)
		if len(g) != 1 {
			t.Fatalf("cycle %d: %v", c, g)
		}
		winners[g[0].In]++
	}
	// Inputs 1 and 2 must share output 0 roughly evenly.
	if winners[1] < 15 || winners[2] < 15 {
		t.Fatalf("starvation through empty priority holder: %v", winners)
	}
}

func TestDumbPriorityAlwaysAdvances(t *testing.T) {
	a := New(Dumb, 2, 2)
	v := newTableView(2, 2)
	v.set(0, 0, 1)
	v.block(0, 0, true)
	a.Arbitrate(&v.Snapshot, nil) // input 0 had priority, transmitted nothing
	// Priority must have moved to input 1 anyway: with both unblocked and
	// contending for output 0, input 1 now wins.
	v.block(0, 0, false)
	v.set(1, 0, 1)
	g := a.Arbitrate(&v.Snapshot, nil)
	if len(g) != 1 || g[0].In != 1 {
		t.Fatalf("grants = %v, want input 1 to hold priority", g)
	}
}

func TestStaleCountPrefersStarvedQueue(t *testing.T) {
	a := New(Smart, 1, 2)
	v := newTableView(1, 2)
	// Queue for output 1 waits while output 1 is blocked; queue 0 keeps
	// transmitting. When output 1 unblocks, its higher stale count must
	// beat queue 0's greater length.
	v.set(0, 0, 5)
	v.set(0, 1, 1)
	v.block(0, 1, true)
	for c := 0; c < 3; c++ {
		g := a.Arbitrate(&v.Snapshot, nil)
		if len(g) != 1 || g[0].Out != 0 {
			t.Fatalf("cycle %d: %v", c, g)
		}
	}
	if a.Stale(0, 1) != 3 {
		t.Fatalf("stale = %d, want 3", a.Stale(0, 1))
	}
	v.block(0, 1, false)
	g := a.Arbitrate(&v.Snapshot, nil)
	if len(g) != 1 || g[0].Out != 1 {
		t.Fatalf("stale queue not preferred: %v", g)
	}
	if a.Stale(0, 1) != 0 {
		t.Fatalf("stale not reset after transmit: %d", a.Stale(0, 1))
	}
}

func TestDumbIgnoresStale(t *testing.T) {
	a := New(Dumb, 1, 2)
	v := newTableView(1, 2)
	v.set(0, 0, 5)
	v.set(0, 1, 1)
	v.block(0, 1, true)
	for c := 0; c < 3; c++ {
		a.Arbitrate(&v.Snapshot, nil)
	}
	v.block(0, 1, false)
	g := a.Arbitrate(&v.Snapshot, nil)
	// Dumb ignores stale counts: longest queue (output 0) still wins.
	if len(g) != 1 || g[0].Out != 0 {
		t.Fatalf("grants = %v, want longest queue", g)
	}
}

func TestReset(t *testing.T) {
	a := New(Smart, 2, 2)
	v := newTableView(2, 2)
	v.set(0, 0, 1)
	v.block(0, 0, true)
	a.Arbitrate(&v.Snapshot, nil)
	if a.Stale(0, 0) == 0 {
		t.Fatal("stale should be nonzero before reset")
	}
	a.Reset()
	if a.Stale(0, 0) != 0 {
		t.Fatal("reset did not clear stale")
	}
}

func TestArbitratePanicsOnMismatchedView(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a := New(Dumb, 2, 2)
	a.Arbitrate(&newTableView(3, 3).Snapshot, nil)
}

// TestMatchingValidityProperty: for random views, the matching is always
// valid (≤1 grant per output, ≤MaxReads per input, only eligible pairs)
// and maximal per the examination order (no eligible pair left when both
// sides are free).
func TestMatchingValidityProperty(t *testing.T) {
	f := func(queues [4][4]uint8, blocked [4][4]bool, smart bool, safc [4]bool) bool {
		policy := Dumb
		if smart {
			policy = Smart
		}
		a := New(policy, 4, 4)
		v := newTableView(4, 4)
		for i := 0; i < 4; i++ {
			if safc[i] {
				v.MaxReads[i] = 4
			}
			for o := 0; o < 4; o++ {
				v.set(i, o, int(queues[i][o]%4))
				v.block(i, o, blocked[i][o])
			}
		}
		grants := a.Arbitrate(&v.Snapshot, nil)
		outSeen := map[int]bool{}
		inCount := map[int]int{}
		for _, g := range grants {
			if outSeen[g.Out] {
				return false // output double-granted
			}
			outSeen[g.Out] = true
			inCount[g.In]++
			if inCount[g.In] > v.MaxReads[g.In] {
				return false // read-port violation
			}
			if v.queue(g.In, g.Out) == 0 || v.blocked[g.In*4+g.Out] {
				return false // ineligible grant
			}
		}
		// Maximality: no input with remaining read capacity has an
		// eligible queue for a free output.
		for i := 0; i < 4; i++ {
			if inCount[i] >= v.MaxReads[i] {
				continue
			}
			for o := 0; o < 4; o++ {
				if !outSeen[o] && v.queue(i, o) > 0 && !v.blocked[i*4+o] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkArbitrate4x4(b *testing.B) {
	a := New(Smart, 4, 4)
	v := newTableView(4, 4)
	for i := 0; i < 4; i++ {
		for o := 0; o < 4; o++ {
			v.set(i, o, (i+o)%3)
		}
	}
	var grants []Grant
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		grants = a.Arbitrate(&v.Snapshot, grants[:0])
	}
}

// BenchmarkArbitrate steps a Smart arbiter through a ring of seeded random
// snapshots — sparse rows with empty queues, blocked heads and idle
// inputs, drawn as TestArbitrateMatchesReference draws them — so the
// scan's branches see varying traffic instead of one predictable row.
func BenchmarkArbitrate(b *testing.B) {
	for _, n := range []int{4, 2} {
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			const ring = 1024
			src := rng.New(uint64(n))
			views := make([]*tableView, ring)
			for k := range views {
				v := newTableView(n, n)
				for i := 0; i < n; i++ {
					for o := 0; o < n; o++ {
						if src.Intn(3) == 0 {
							v.set(i, o, 1+src.Intn(3))
						}
						v.block(i, o, src.Intn(4) == 0)
					}
				}
				views[k] = v
			}
			a := New(Smart, n, n)
			grants := make([]Grant, 0, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				grants = a.Arbitrate(&views[i%ring].Snapshot, grants[:0])
			}
		})
	}
}

// TestAdvanceIdleMatchesEmptyArbitration pins the contract the active-set
// network simulator depends on: AdvanceIdle(k) must leave the arbiter in
// exactly the state k Arbitrate calls against an empty view would, for
// both policies, so that skipping idle switches cannot perturb any later
// arbitration decision.
func TestAdvanceIdleMatchesEmptyArbitration(t *testing.T) {
	for _, policy := range []Policy{Dumb, Smart} {
		for _, k := range []int64{0, 1, 2, 3, 4, 5, 7, 8, 100, 101} {
			stepped := New(policy, 4, 4)
			jumped := New(policy, 4, 4)
			empty := newTableView(4, 4)
			for i := int64(0); i < k; i++ {
				if g := stepped.Arbitrate(&empty.Snapshot, nil); len(g) != 0 {
					t.Fatalf("%v: empty view produced grants %v", policy, g)
				}
			}
			jumped.AdvanceIdle(k)

			// Same traffic must now yield the same grants from both.
			busy := newTableView(4, 4)
			busy.set(0, 1, 2)
			busy.set(1, 1, 1)
			busy.set(2, 3, 1)
			busy.set(3, 2, 4)
			gs := stepped.Arbitrate(&busy.Snapshot, nil)
			gj := jumped.Arbitrate(&busy.Snapshot, nil)
			if len(gs) != len(gj) {
				t.Fatalf("%v k=%d: grant counts differ: %v vs %v", policy, k, gs, gj)
			}
			for i := range gs {
				if gs[i] != gj[i] {
					t.Fatalf("%v k=%d: grants differ: %v vs %v", policy, k, gs, gj)
				}
			}
		}
	}
}
