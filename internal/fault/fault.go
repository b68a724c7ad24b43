// Package fault is the deterministic fault-injection engine. The paper's
// DAMQ correctness hangs entirely on the integrity of its hardware linked
// lists (per-slot pointer registers, head/tail registers, free list) and on
// the byte-serial ComCoBB wire protocol; this package supplies the faults
// that stress those structures and the contract the recovery machinery in
// internal/buffer, internal/comcobb, and internal/netsim is tested against.
//
// The determinism contract: every fault decision is a pure function of
// (seed, site, cycle). An Injector holds no mutable state, so fault
// schedules are replayable byte-for-byte regardless of query order, worker
// count, or how often a site is probed. Two runs with the same seed and
// the same site numbering see exactly the same faults; a run with all
// rates zero sees none and consumes no randomness from the simulation's
// own RNG streams (the injector hashes, it does not draw).
//
// Fault taxonomy (Kind):
//
//   - SlotStuck: a buffer slot fails permanently at a per-slot failure
//     cycle drawn geometrically from SlotStuckRate (per slot-cycle). The
//     buffer layer quarantines the slot so capacity shrinks instead of the
//     linked list corrupting.
//   - WireCorrupt: a byte on a chip link is corrupted (one data bit
//     flipped, parity left stale) with probability WireCorruptRate per
//     (link, cycle). The chip layer detects the parity mismatch and NACKs.
//   - LinkTransient: an Omega-network link drops this cycle's traffic
//     with probability LinkTransientRate per (link, cycle).
//   - LinkDead: an Omega-network link fails permanently at a per-link
//     cycle drawn geometrically from LinkDeadRate (per link-cycle).
//
// Site numbering is owned by the consumer (each simulation numbers its own
// buffers and links); the helpers at the bottom pack multi-coordinate
// sites into the uint64 the injector hashes.
package fault

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"damq/internal/cfgerr"
)

// Kind identifies one fault class.
type Kind int

const (
	// SlotStuck is a permanently dead buffer slot.
	SlotStuck Kind = iota
	// WireCorrupt is a corrupted byte on a chip wire.
	WireCorrupt
	// LinkTransient is a network link dropping one cycle's traffic.
	LinkTransient
	// LinkDead is a network link failing permanently.
	LinkDead
)

var kindNames = [...]string{"SlotStuck", "WireCorrupt", "LinkTransient", "LinkDead"}

// String returns the fault kind's name.
func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// Kinds lists every fault kind in declaration order.
func Kinds() []Kind { return []Kind{SlotStuck, WireCorrupt, LinkTransient, LinkDead} }

// ParseKind converts a name like "slotstuck" (any case) to its Kind. The
// error lists every valid name and wraps cfgerr.ErrBadTraffic-style
// sentinel semantics via ErrBadFaultRate's sibling convention: unknown
// kinds wrap cfgerr.ErrBadKind so callers classify with errors.Is,
// mirroring buffer.ParseKind.
func ParseKind(s string) (Kind, error) {
	for i, n := range kindNames {
		if strings.EqualFold(s, n) {
			return Kind(i), nil
		}
	}
	valid := make([]string, len(kindNames))
	for i, n := range kindNames {
		valid[i] = strings.ToLower(n)
	}
	return 0, fmt.Errorf("fault: unknown kind %q (want %s): %w",
		s, strings.Join(valid, "|"), cfgerr.ErrBadKind)
}

// Config describes a fault schedule. The zero value disables everything.
type Config struct {
	// Seed is the fault schedule's own seed, independent of the
	// simulation seed so the same traffic can be replayed under different
	// fault schedules and vice versa. Consumers treat 0 as "derive from
	// the simulation seed".
	Seed uint64
	// SlotStuckRate is the per-slot, per-cycle probability that a buffer
	// slot fails permanently (each slot fails at most once).
	SlotStuckRate float64
	// WireCorruptRate is the per-link, per-cycle probability that a valid
	// byte on a chip wire is corrupted.
	WireCorruptRate float64
	// LinkTransientRate is the per-link, per-cycle probability that a
	// network link drops the packet crossing it this cycle.
	LinkTransientRate float64
	// LinkDeadRate is the per-link, per-cycle probability that a network
	// link fails permanently (each link dies at most once).
	LinkDeadRate float64
	// RetryLimit bounds retransmit attempts after a NACK (chip driver).
	// 0 means no retransmission.
	RetryLimit int
	// RetryBackoff is the idle-cycle base of the retransmit backoff:
	// attempt k waits RetryBackoff << (k-1) cycles before resending.
	// 0 means the consumer's default (DefaultRetryBackoff).
	RetryBackoff int
}

// DefaultRetryBackoff is the retransmit backoff base used when a Config
// leaves RetryBackoff zero: 2 idle cycles, enough for the one-cycle wire
// plus the receiver's one-cycle synchronizer to drain between attempts.
const DefaultRetryBackoff = 2

// Enabled reports whether any fault class can fire.
func (c Config) Enabled() bool {
	return c.SlotStuckRate > 0 || c.WireCorruptRate > 0 ||
		c.LinkTransientRate > 0 || c.LinkDeadRate > 0
}

// Validate checks the config under the repo-wide sentinel-error
// convention: rate errors wrap cfgerr.ErrBadFaultRate, retry errors wrap
// cfgerr.ErrBadRetryLimit.
func (c Config) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"SlotStuckRate", c.SlotStuckRate},
		{"WireCorruptRate", c.WireCorruptRate},
		{"LinkTransientRate", c.LinkTransientRate},
		{"LinkDeadRate", c.LinkDeadRate},
	} {
		if r.v < 0 || r.v > 1 || math.IsNaN(r.v) {
			return fmt.Errorf("fault: %s %v out of [0,1]: %w", r.name, r.v, cfgerr.ErrBadFaultRate)
		}
	}
	if c.RetryLimit < 0 {
		return fmt.Errorf("fault: RetryLimit must be >= 0, got %d: %w", c.RetryLimit, cfgerr.ErrBadRetryLimit)
	}
	if c.RetryBackoff < 0 {
		return fmt.Errorf("fault: RetryBackoff must be >= 0, got %d: %w", c.RetryBackoff, cfgerr.ErrBadRetryLimit)
	}
	return nil
}

// ParseSpec parses the CLIs' -faults flag: comma-separated key=value
// pairs where each key is a fault kind (any case, per ParseKind) mapping
// to its rate, plus "seed=N", "retries=N", and "backoff=N". Examples:
//
//	slotstuck=1e-5,linktransient=1e-3
//	wirecorrupt=0.01,retries=3,seed=7
//
// An empty spec returns the zero (disabled) Config. The result is
// validated before it is returned.
func ParseSpec(spec string) (Config, error) {
	var c Config
	if strings.TrimSpace(spec) == "" {
		return c, nil
	}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return c, fmt.Errorf("fault: bad spec field %q (want key=value)", field)
		}
		key = strings.TrimSpace(key)
		val = strings.TrimSpace(val)
		switch strings.ToLower(key) {
		case "seed":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return c, fmt.Errorf("fault: bad seed %q: %v", val, err)
			}
			c.Seed = n
			continue
		case "retries":
			n, err := strconv.Atoi(val)
			if err != nil {
				return c, fmt.Errorf("fault: bad retries %q: %v", val, err)
			}
			c.RetryLimit = n
			continue
		case "backoff":
			n, err := strconv.Atoi(val)
			if err != nil {
				return c, fmt.Errorf("fault: bad backoff %q: %v", val, err)
			}
			c.RetryBackoff = n
			continue
		}
		kind, err := ParseKind(key)
		if err != nil {
			return c, err
		}
		rate, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return c, fmt.Errorf("fault: bad rate %q for %v: %v", val, kind, err)
		}
		switch kind {
		case SlotStuck:
			c.SlotStuckRate = rate
		case WireCorrupt:
			c.WireCorruptRate = rate
		case LinkTransient:
			c.LinkTransientRate = rate
		case LinkDead:
			c.LinkDeadRate = rate
		}
	}
	if err := c.Validate(); err != nil {
		return c, err
	}
	return c, nil
}

// Injector evaluates a Config's fault schedule. It is immutable after
// construction and safe for concurrent use: every method is a pure
// function of its arguments and the seed.
type Injector struct {
	cfg Config
}

// NewInjector validates cfg and returns its injector.
func NewInjector(cfg Config) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Injector{cfg: cfg}, nil
}

// Config returns the injector's configuration.
func (in *Injector) Config() Config { return in.cfg }

// mix hashes the seed with up to three coordinates through two rounds of
// the SplitMix64 finalizer. Coordinates are pre-whitened with distinct
// odd constants so (site=1, cycle=2) and (site=2, cycle=1) land far
// apart.
func (in *Injector) mix(kind Kind, site uint64, cycle int64) uint64 {
	z := in.cfg.Seed ^
		(uint64(kind)+1)*0x9e3779b97f4a7c15 ^
		site*0xbf58476d1ce4e5b9 ^
		uint64(cycle)*0x94d049bb133111eb
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// u01 maps a hash to a uniform float64 in [0, 1).
func u01(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// firstFailure converts a uniform draw and a per-cycle rate into the
// cycle of the first failure (geometric distribution on {0, 1, 2, ...}),
// or -1 for "never" (rate zero, or the draw maps past the horizon).
func firstFailure(u, rate float64) int64 {
	if rate <= 0 {
		return -1
	}
	if rate >= 1 {
		return 0
	}
	// Inverse CDF of the geometric distribution counting failures before
	// the first success: floor(ln(1-u) / ln(1-rate)).
	k := math.Floor(math.Log1p(-u) / math.Log1p(-rate))
	if k < 0 {
		return 0
	}
	if k > math.MaxInt64/2 {
		return -1
	}
	return int64(k)
}

// SlotFailCycle returns the cycle at which slot `slot` of buffer site
// `site` fails permanently, or -1 if it never fails. A slot whose fail
// cycle is 0 is stuck from power-on.
// damqvet:hotpath
func (in *Injector) SlotFailCycle(site uint64, slot int) int64 {
	return firstFailure(u01(in.mix(SlotStuck, site^uint64(slot)*0xd6e8feb86659fd93, 0)), in.cfg.SlotStuckRate)
}

// LinkDeadCycle returns the cycle at which link `site` fails permanently,
// or -1 if it never does.
func (in *Injector) LinkDeadCycle(site uint64) int64 {
	return firstFailure(u01(in.mix(LinkDead, site, 0)), in.cfg.LinkDeadRate)
}

// LinkDown reports whether link `site` is down at `cycle`: permanently
// dead (at or past its dead cycle) or transiently dropping this cycle.
// damqvet:hotpath
func (in *Injector) LinkDown(site uint64, cycle int64) bool {
	if in.cfg.LinkDeadRate > 0 {
		if dc := in.LinkDeadCycle(site); dc >= 0 && cycle >= dc {
			return true
		}
	}
	if in.cfg.LinkTransientRate > 0 {
		return u01(in.mix(LinkTransient, site, cycle)) < in.cfg.LinkTransientRate
	}
	return false
}

// CorruptWire reports whether the byte on link `site` at `cycle` is
// corrupted, and with which single-bit XOR mask. The mask is never zero
// when ok is true.
// damqvet:hotpath
func (in *Injector) CorruptWire(site uint64, cycle int64) (mask byte, ok bool) {
	if in.cfg.WireCorruptRate <= 0 {
		return 0, false
	}
	h := in.mix(WireCorrupt, site, cycle)
	if u01(h) >= in.cfg.WireCorruptRate {
		return 0, false
	}
	// Reuse the hash's low bits (independent of the high bits u01 used)
	// to pick which of the 8 data wires flips.
	return 1 << (h & 7), true
}

// Site packing ------------------------------------------------------------

// NetLinkSite numbers the Omega-network link leaving output `out` of
// switch `sw` in stage `st` (the last stage's links feed the memory
// modules).
func NetLinkSite(st, sw, out int) uint64 {
	return 1<<40 | uint64(st)<<28 | uint64(sw)<<8 | uint64(out)
}

// BufferSite numbers the input buffer at port `in` of switch `sw` in
// stage `st`.
func BufferSite(st, sw, in int) uint64 {
	return 2<<40 | uint64(st)<<28 | uint64(sw)<<8 | uint64(in)
}

// ChipLinkSite numbers the wire feeding input port `port` of a ComCoBB
// chip. Chips carry no number of their own, so two chips armed with one
// fault config corrupt the same ports in the same cycles.
func ChipLinkSite(port int) uint64 {
	return 3<<40 | uint64(port)
}

// Metric names -------------------------------------------------------------
//
// The fault.* instrument names every layer registers when both faults and
// an observer are attached. Defined here so netsim, comcobb, and the
// facade agree on the exported schema.
const (
	// MetricSlotsQuarantined counts buffer slots removed from service.
	MetricSlotsQuarantined = "fault.slots.quarantined"
	// MetricLinkDrops counts packets lost to dead or flapping network
	// links (netsim's faulted-discard class).
	MetricLinkDrops = "fault.net.link_drops"
	// MetricWireCorrupted counts injected wire-byte corruptions.
	MetricWireCorrupted = "fault.wire.corrupted"
	// MetricNACKs counts parity failures NACKed back to the sender.
	MetricNACKs = "fault.wire.nacks"
	// MetricRxDropped counts packets a receiver dropped on parity failure.
	MetricRxDropped = "fault.rx.dropped"
	// MetricRxPoisoned counts packets that were already cutting through
	// when corruption arrived: the damage propagates downstream and only
	// an end-to-end check can catch it.
	MetricRxPoisoned = "fault.rx.poisoned"
	// MetricRetries counts driver retransmissions.
	MetricRetries = "fault.driver.retries"
	// MetricGaveUp counts packets abandoned after the retry budget.
	MetricGaveUp = "fault.driver.gaveup"
	// MetricRetryAttempts is the recovery histogram: attempts needed per
	// eventually-delivered packet (1 = clean first try).
	MetricRetryAttempts = "fault.driver.retry_attempts"
)
