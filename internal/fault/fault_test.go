package fault

import (
	"errors"
	"math"
	"strings"
	"testing"

	"damq/internal/cfgerr"
)

func mustInjector(t *testing.T, cfg Config) *Injector {
	t.Helper()
	in, err := NewInjector(cfg)
	if err != nil {
		t.Fatalf("NewInjector(%+v): %v", cfg, err)
	}
	return in
}

// The determinism contract: every fault decision is a pure function of
// (seed, site, cycle), so two injectors with the same config agree on
// every query, regardless of query order.
func TestInjectorDeterministic(t *testing.T) {
	cfg := Config{
		Seed:              42,
		SlotStuckRate:     1e-3,
		WireCorruptRate:   1e-2,
		LinkTransientRate: 5e-3,
		LinkDeadRate:      1e-4,
	}
	a := mustInjector(t, cfg)
	b := mustInjector(t, cfg)

	// Query b in reverse order to prove statelessness.
	type wireQ struct {
		site  uint64
		cycle int64
		mask  byte
		ok    bool
	}
	var fwd []wireQ
	for site := uint64(0); site < 8; site++ {
		for cycle := int64(0); cycle < 200; cycle++ {
			m, ok := a.CorruptWire(site, cycle)
			fwd = append(fwd, wireQ{site, cycle, m, ok})
		}
	}
	for i := len(fwd) - 1; i >= 0; i-- {
		q := fwd[i]
		m, ok := b.CorruptWire(q.site, q.cycle)
		if m != q.mask || ok != q.ok {
			t.Fatalf("CorruptWire(%d,%d) order-dependent: (%#x,%v) vs (%#x,%v)",
				q.site, q.cycle, q.mask, q.ok, m, ok)
		}
	}
	for site := uint64(0); site < 32; site++ {
		if got, want := b.LinkDeadCycle(site), a.LinkDeadCycle(site); got != want {
			t.Fatalf("LinkDeadCycle(%d) = %d vs %d", site, got, want)
		}
		for slot := 0; slot < 8; slot++ {
			if got, want := b.SlotFailCycle(site, slot), a.SlotFailCycle(site, slot); got != want {
				t.Fatalf("SlotFailCycle(%d,%d) = %d vs %d", site, slot, got, want)
			}
		}
		for cycle := int64(0); cycle < 100; cycle++ {
			if got, want := b.LinkDown(site, cycle), a.LinkDown(site, cycle); got != want {
				t.Fatalf("LinkDown(%d,%d) = %v vs %v", site, cycle, got, want)
			}
		}
	}
}

func TestInjectorSeedsDiffer(t *testing.T) {
	a := mustInjector(t, Config{Seed: 1, WireCorruptRate: 0.5})
	b := mustInjector(t, Config{Seed: 2, WireCorruptRate: 0.5})
	same := 0
	const n = 512
	for cycle := int64(0); cycle < n; cycle++ {
		_, okA := a.CorruptWire(7, cycle)
		_, okB := b.CorruptWire(7, cycle)
		if okA == okB {
			same++
		}
	}
	if same == n {
		t.Fatalf("seeds 1 and 2 produced identical corruption schedules over %d cycles", n)
	}
}

func TestZeroRatesNeverFire(t *testing.T) {
	in := mustInjector(t, Config{Seed: 9})
	for site := uint64(0); site < 64; site++ {
		if in.LinkDeadCycle(site) != -1 {
			t.Fatalf("LinkDeadCycle(%d) fired with zero rate", site)
		}
		if in.SlotFailCycle(site, 3) != -1 {
			t.Fatalf("SlotFailCycle(%d,3) fired with zero rate", site)
		}
		for cycle := int64(0); cycle < 64; cycle++ {
			if in.LinkDown(site, cycle) {
				t.Fatalf("LinkDown(%d,%d) fired with zero rate", site, cycle)
			}
			if _, ok := in.CorruptWire(site, cycle); ok {
				t.Fatalf("CorruptWire(%d,%d) fired with zero rate", site, cycle)
			}
		}
	}
}

func TestRateOneFiresImmediately(t *testing.T) {
	in := mustInjector(t, Config{Seed: 3, SlotStuckRate: 1, LinkDeadRate: 1, LinkTransientRate: 1, WireCorruptRate: 1})
	if got := in.SlotFailCycle(5, 2); got != 0 {
		t.Fatalf("SlotFailCycle at rate 1 = %d, want 0", got)
	}
	if got := in.LinkDeadCycle(5); got != 0 {
		t.Fatalf("LinkDeadCycle at rate 1 = %d, want 0", got)
	}
	if !in.LinkDown(5, 0) {
		t.Fatal("LinkDown at rate 1 = false")
	}
	mask, ok := in.CorruptWire(5, 0)
	if !ok || mask == 0 || mask&(mask-1) != 0 {
		t.Fatalf("CorruptWire at rate 1 = (%#x,%v), want single-bit mask", mask, ok)
	}
}

// The permanent-death model is monotone: once LinkDown reports true via
// the dead path it must stay true for all later cycles.
func TestLinkDeadIsPermanent(t *testing.T) {
	in := mustInjector(t, Config{Seed: 11, LinkDeadRate: 0.05})
	for site := uint64(0); site < 64; site++ {
		dc := in.LinkDeadCycle(site)
		if dc < 0 {
			continue
		}
		for _, cycle := range []int64{dc, dc + 1, dc + 17, dc + 1000} {
			if !in.LinkDown(site, cycle) {
				t.Fatalf("site %d dead at %d but LinkDown(%d) = false", site, dc, cycle)
			}
		}
		if dc > 0 && in.LinkDown(site, dc-1) {
			t.Fatalf("site %d dead at %d but already down at %d", site, dc, dc-1)
		}
	}
}

// The geometric schedule should fire at roughly rate * horizon sites over
// a horizon — a loose sanity band, not a statistical test.
func TestGeometricRateSanity(t *testing.T) {
	const (
		rate    = 1e-3
		horizon = 1000
		sites   = 4000
	)
	in := mustInjector(t, Config{Seed: 5, LinkDeadRate: rate})
	fired := 0
	for site := uint64(0); site < sites; site++ {
		if dc := in.LinkDeadCycle(site); dc >= 0 && dc < horizon {
			fired++
		}
	}
	// E[fired] = sites * (1 - (1-rate)^horizon) ~ 2529.
	want := sites * (1 - math.Pow(1-rate, horizon))
	if f := float64(fired); f < want*0.8 || f > want*1.2 {
		t.Fatalf("fired %d of %d sites within %d cycles; expected about %.0f", fired, sites, horizon, want)
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want error
	}{
		{"zero ok", Config{}, nil},
		{"full ok", Config{Seed: 1, SlotStuckRate: 0.1, WireCorruptRate: 1, LinkTransientRate: 0.5, LinkDeadRate: 0, RetryLimit: 3, RetryBackoff: 4}, nil},
		{"negative rate", Config{SlotStuckRate: -0.1}, cfgerr.ErrBadFaultRate},
		{"rate above one", Config{LinkTransientRate: 1.5}, cfgerr.ErrBadFaultRate},
		{"nan rate", Config{WireCorruptRate: math.NaN()}, cfgerr.ErrBadFaultRate},
		{"negative retries", Config{RetryLimit: -1}, cfgerr.ErrBadRetryLimit},
		{"negative backoff", Config{RetryBackoff: -2}, cfgerr.ErrBadRetryLimit},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.want == nil {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("Validate() = %v, want errors.Is(%v)", err, tc.want)
			}
		})
	}
}

func TestEnabled(t *testing.T) {
	if (Config{}).Enabled() {
		t.Fatal("zero config reports Enabled")
	}
	if (Config{RetryLimit: 5}).Enabled() {
		t.Fatal("retry-only config reports Enabled")
	}
	for _, cfg := range []Config{
		{SlotStuckRate: 1e-9},
		{WireCorruptRate: 1e-9},
		{LinkTransientRate: 1e-9},
		{LinkDeadRate: 1e-9},
	} {
		if !cfg.Enabled() {
			t.Fatalf("%+v not Enabled", cfg)
		}
	}
}

func TestParseKind(t *testing.T) {
	for _, k := range Kinds() {
		for _, s := range []string{k.String(), strings.ToLower(k.String()), strings.ToUpper(k.String())} {
			got, err := ParseKind(s)
			if err != nil || got != k {
				t.Fatalf("ParseKind(%q) = %v, %v; want %v", s, got, err, k)
			}
		}
	}
	_, err := ParseKind("meteor")
	if !errors.Is(err, cfgerr.ErrBadKind) {
		t.Fatalf("ParseKind(meteor) = %v, want errors.Is(ErrBadKind)", err)
	}
	for _, name := range []string{"slotstuck", "wirecorrupt", "linktransient", "linkdead"} {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("ParseKind error %q does not list %q", err, name)
		}
	}
}

func TestParseSpec(t *testing.T) {
	got, err := ParseSpec("slotstuck=1e-5, LinkTransient=0.001,wirecorrupt=0.01,linkdead=2e-6,seed=7,retries=3,backoff=4")
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	want := Config{
		Seed:              7,
		SlotStuckRate:     1e-5,
		WireCorruptRate:   0.01,
		LinkTransientRate: 0.001,
		LinkDeadRate:      2e-6,
		RetryLimit:        3,
		RetryBackoff:      4,
	}
	if got != want {
		t.Fatalf("ParseSpec = %+v, want %+v", got, want)
	}

	if got, err := ParseSpec(""); err != nil || got != (Config{}) {
		t.Fatalf("ParseSpec(\"\") = %+v, %v; want zero config", got, err)
	}
	if _, err := ParseSpec("slotstuck"); err == nil {
		t.Fatal("ParseSpec without '=' succeeded")
	}
	if _, err := ParseSpec("meteor=1"); !errors.Is(err, cfgerr.ErrBadKind) {
		t.Fatalf("ParseSpec(meteor=1) = %v, want ErrBadKind", err)
	}
	if _, err := ParseSpec("slotstuck=2"); !errors.Is(err, cfgerr.ErrBadFaultRate) {
		t.Fatalf("ParseSpec(slotstuck=2) = %v, want ErrBadFaultRate", err)
	}
	if _, err := ParseSpec("retries=-1"); !errors.Is(err, cfgerr.ErrBadRetryLimit) {
		t.Fatalf("ParseSpec(retries=-1) = %v, want ErrBadRetryLimit", err)
	}
	if _, err := ParseSpec("slotstuck=zebra"); err == nil {
		t.Fatal("ParseSpec with non-numeric rate succeeded")
	}
	if _, err := ParseSpec("seed=-3"); err == nil {
		t.Fatal("ParseSpec with negative seed succeeded")
	}
}

func TestCorruptWireMaskSingleBit(t *testing.T) {
	in := mustInjector(t, Config{Seed: 17, WireCorruptRate: 0.3})
	seen := map[byte]bool{}
	for site := uint64(0); site < 16; site++ {
		for cycle := int64(0); cycle < 400; cycle++ {
			mask, ok := in.CorruptWire(site, cycle)
			if !ok {
				if mask != 0 {
					t.Fatalf("CorruptWire(%d,%d) returned mask %#x with ok=false", site, cycle, mask)
				}
				continue
			}
			if mask == 0 || mask&(mask-1) != 0 {
				t.Fatalf("CorruptWire(%d,%d) mask %#x is not a single bit", site, cycle, mask)
			}
			seen[mask] = true
		}
	}
	if len(seen) < 4 {
		t.Fatalf("only %d distinct bit positions flipped; mask selection looks stuck", len(seen))
	}
}

func TestSitePackingDisjoint(t *testing.T) {
	seen := map[uint64]string{}
	add := func(site uint64, what string) {
		t.Helper()
		if prev, dup := seen[site]; dup {
			t.Fatalf("site collision: %s and %s both map to %#x", prev, what, site)
		}
		seen[site] = what
	}
	for st := 0; st < 3; st++ {
		for sw := 0; sw < 16; sw++ {
			for p := 0; p < 4; p++ {
				add(NetLinkSite(st, sw, p), "net link")
				add(BufferSite(st, sw, p), "buffer")
			}
		}
	}
	for port := 0; port < 5; port++ {
		add(ChipLinkSite(port), "chip link")
	}
}
