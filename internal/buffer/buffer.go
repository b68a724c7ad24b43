// Package buffer implements the input-port buffer organizations compared
// in Tamir & Frazier (1988) under the long-clock packet model, plus their
// modern successors, all as compositions of one storage structure with
// one admission policy:
//
//   - Storage is always the paper's DAMQ slot pool (SlotPool): fixed
//     slots threaded into per-queue linked lists by per-slot pointer
//     registers. A FIFO is the pool with a single queue; multi-queue
//     kinds give each output port its own queue.
//   - An admission rule decides, from the pool's occupancy registers,
//     whether a routed packet may enter. It is pure and allocation-free.
//
// The 1988 kinds under this split:
//
//   - FIFO: complete sharing × single queue. Only the head packet is
//     visible to the crossbar — head-of-line blocking.
//   - SAMQ: complete partitioning × per-output queues, one read port.
//   - SAFC: complete partitioning × per-output queues, every queue its
//     own read port.
//   - DAMQ: complete sharing × per-output queues (the paper's
//     contribution).
//   - DAFC: complete sharing × per-output queues with SAFC connectivity
//     (the design-space corner the connectivity ablation measures).
//
// And the 2026 kinds, which only exist because admission is a separate
// axis:
//
//   - DT: classic Dynamic Threshold (Choudhury & Hahne) — a queue may
//     hold at most alpha × current free space.
//   - FB: flexible sharing across priority classes (Apostolaki et al.) —
//     per-class reserved quotas plus thresholds that halve per class.
//   - BSHARE: queueing-delay-driven sharing (Agarwal et al.) — a queue
//     whose head packet overstays the delay target loses share.
//
// All kinds expose the same Buffer interface so the switch and network
// simulators are parameterized only by buffer kind. Storage is counted in
// slots; fixed-length experiments use one slot per packet, the
// variable-length extension uses several. NewSharedGroup builds the
// switch-wide shared-pool mode: one storage group spanning every input
// port of a switch.
package buffer

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"damq/internal/cfgerr"
	"damq/internal/names"
	"damq/internal/packet"
)

// Kind identifies a buffer organization: a (policy, storage-layout,
// connectivity) triple.
type Kind int

const (
	FIFO Kind = iota
	SAMQ
	SAFC
	DAMQ
	// DAFC (dynamically allocated, fully connected) is not one of the
	// paper's four designs but the fourth corner of its design space:
	// DAMQ's shared slot pool combined with SAFC's one-read-port-per-queue
	// connectivity. It exists to quantify the paper's observation that
	// "the additional throughput provided by fully connecting the inputs
	// with the outputs does not provide a significant boost" — see the
	// connectivity ablation in internal/experiments.
	DAFC
	// DT is the classic Dynamic Threshold policy over DAMQ storage.
	DT
	// FB is per-priority-class flexible sharing over DAMQ storage.
	FB
	// BSHARE is queueing-delay-driven sharing over DAMQ storage.
	BSHARE
)

var kindNames = [...]string{"FIFO", "SAMQ", "SAFC", "DAMQ", "DAFC", "DT", "FB", "BSHARE"}

// String returns the canonical name for the buffer kind.
func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// PolicyName is the short name of the admission policy the kind composes
// over the slot pool, for error messages, metrics, and reports.
func (k Kind) PolicyName() string { return ruleNames[ruleOf(k)] }

// Kinds lists the paper's four buffer kinds in its comparison order.
// The DAFC ablation variant and the modern policies are excluded; use
// AllKinds or ModernKinds.
func Kinds() []Kind { return []Kind{FIFO, SAMQ, SAFC, DAMQ} }

// ModernKinds lists the post-1988 sharing policies.
func ModernKinds() []Kind { return []Kind{DT, FB, BSHARE} }

// AllKinds lists every constructible kind: the paper's four, the DAFC
// ablation, and the modern policies.
func AllKinds() []Kind { return []Kind{FIFO, SAMQ, SAFC, DAMQ, DAFC, DT, FB, BSHARE} }

// KindModern reports whether k is one of the post-1988 policies.
func KindModern(k Kind) bool { return k == DT || k == FB || k == BSHARE }

// KindSharesPool reports whether k's storage may span all input ports of
// a switch as one shared group (NewSharedGroup). True for every
// dynamically pooled kind; the statically partitioned SAMQ/SAFC and the
// single-queue FIFO pre-commit their layout per port by definition.
//
// It is also the fault-eligibility test: slot-stuck faults and
// quarantine at birth apply to exactly these kinds. Every kind's buffer
// can quarantine a slot; FIFO, SAMQ and SAFC are skipped so their
// fault-injected results match the seed implementations.
func KindSharesPool(k Kind) bool {
	return k == DAMQ || k == DAFC || KindModern(k)
}

// KindUsesClock reports whether k's admission policy reads packet ages,
// requiring the owning switch to tick its buffers each long cycle.
func KindUsesClock(k Kind) bool { return k == BSHARE }

// ParseKind converts a name like "damq" (any case) to its Kind. Its
// error lists every valid name and wraps cfgerr.ErrBadKind so CLIs can
// classify it without string matching.
func ParseKind(s string) (Kind, error) {
	if i := names.Index(s, kindNames[:]); i >= 0 {
		return Kind(i), nil
	}
	return 0, fmt.Errorf("buffer: unknown kind %q (want %s): %w",
		s, names.List(kindNames[:]), cfgerr.ErrBadKind)
}

// ParseSpec parses a buffer spec of the form "kind" or
// "kind:key=value,key=value", returning a Config with Kind and Sharing
// set (the caller supplies geometry). Keys tune the modern admission
// policies:
//
//	alpha=F    threshold multiplier for DT/FB/BSHARE (float, > 0)
//	classes=N  priority class count for FB (int, >= 1)
//	delay=N    head-of-line delay target in cycles for BSHARE (int, >= 1)
//
// Examples: "damq", "dt:alpha=2", "fb:classes=4,alpha=1.5",
// "bshare:delay=32". Errors wrap cfgerr.ErrBadKind or
// cfgerr.ErrBadSharing.
func ParseSpec(s string) (Config, error) {
	name, params, hasParams := strings.Cut(s, ":")
	k, err := ParseKind(name)
	if err != nil {
		return Config{}, err
	}
	cfg := Config{Kind: k}
	if !hasParams {
		return cfg, nil
	}
	for _, kv := range strings.Split(params, ",") {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return Config{}, fmt.Errorf("buffer: spec parameter %q is not key=value: %w",
				kv, cfgerr.ErrBadSharing)
		}
		switch {
		case names.Equal(key, "alpha"):
			a, err := strconv.ParseFloat(val, 64)
			// !(a > 0) rather than a <= 0: it also rejects NaN, which
			// compares false both ways and would otherwise slip through
			// into the threshold arithmetic.
			if err != nil || !(a > 0) || math.IsInf(a, 0) {
				return Config{}, fmt.Errorf("buffer: alpha %q must be a positive finite number: %w",
					val, cfgerr.ErrBadSharing)
			}
			cfg.Sharing.Alpha = a
		case names.Equal(key, "classes"):
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return Config{}, fmt.Errorf("buffer: classes %q must be a positive integer: %w",
					val, cfgerr.ErrBadSharing)
			}
			cfg.Sharing.Classes = n
		case names.Equal(key, "delay"):
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || n < 1 {
				return Config{}, fmt.Errorf("buffer: delay %q must be a positive integer: %w",
					val, cfgerr.ErrBadSharing)
			}
			cfg.Sharing.DelayTarget = n
		default:
			return Config{}, fmt.Errorf("buffer: unknown spec parameter %q (want alpha|classes|delay): %w",
				key, cfgerr.ErrBadSharing)
		}
	}
	if err := cfg.validateSharing(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// Buffer is the long-clock behavioural contract shared by all
// organizations. A Buffer belongs to one input port of a switch; packets
// stored in it have already been routed (Packet.OutPort names the local
// output port the packet wants).
//
// Head/Pop semantics encode each design's read restrictions: Head(out)
// is the packet the buffer could deliver to output out this cycle, or nil.
// For multi-queue buffers that is the head of the per-output queue; for a
// FIFO it is the single head packet, and only for that packet's own
// destination — head-of-line blocking falls out of this definition.
// MaxReadsPerCycle is 1 for single-read-port designs (FIFO, SAMQ, DAMQ,
// and the modern policies) and NumOutputs for SAFC/DAFC; the crossbar
// arbiter enforces it.
type Buffer interface {
	// Kind reports the buffer organization.
	Kind() Kind
	// NumOutputs is the number of output ports packets may be routed to.
	NumOutputs() int
	// Capacity is this port's nominal storage in slots. Under a shared
	// pool it is the port's share of the group, not the group total.
	Capacity() int
	// Free is the number of slots available to a new packet addressed to
	// any output for dynamic designs; for static designs it is the total
	// free count across queues (use CanAccept for admission decisions).
	// Under a shared pool it reports the group-wide free count.
	Free() int
	// Len is the number of packets currently buffered at this port.
	// Implementations keep it O(1): network simulators read it on hot
	// paths.
	Len() int
	// Empty reports whether the buffer holds no packets, in O(1).
	Empty() bool
	// CanAccept reports whether p (with OutPort set) fits right now — the
	// admission policy's decision.
	CanAccept(p *packet.Packet) bool
	// Accept stores p. It returns an error if CanAccept(p) is false or
	// p.OutPort is out of range.
	Accept(p *packet.Packet) error
	// QueueLen is the length, in packets, of the queue that would serve
	// output out. For a FIFO it is the whole queue length if the head
	// packet wants out, else 0.
	QueueLen(out int) int
	// Head returns the packet deliverable to out this cycle, or nil.
	Head(out int) *packet.Packet
	// Pop removes and returns Head(out); nil if there is none.
	Pop(out int) *packet.Packet
	// MaxReadsPerCycle is how many packets may leave per long cycle.
	MaxReadsPerCycle() int
	// Reset discards all contents — for shared-pool views, the whole
	// group's contents (reset every view; sw.Switch.Reset does).
	Reset()
}

// ErrFull is wrapped by Accept when the packet does not fit.
var ErrFull = errors.New("buffer full")

// ErrBadPort is wrapped by Accept when OutPort is out of range.
var ErrBadPort = errors.New("output port out of range")

// Sharing tunes the modern admission policies. The zero value means
// "kind defaults"; fields are only legal for kinds whose policy reads
// them (Validate enforces this, so a config cannot silently carry knobs
// that do nothing).
type Sharing struct {
	// Alpha is the threshold multiplier for DT, FB, and BSHARE.
	// 0 means the default 1.0.
	Alpha float64
	// Classes is FB's priority class count. 0 means the default 2.
	Classes int
	// DelayTarget is BSHARE's head-of-line delay target in cycles
	// (pool ticks). 0 means the default 16.
	DelayTarget int64
}

const (
	defaultAlpha       = 1.0
	defaultClasses     = 2
	defaultDelayTarget = 16
)

func (s Sharing) alpha() float64 {
	if s.Alpha > 0 {
		return s.Alpha
	}
	return defaultAlpha
}

func (s Sharing) classes() int {
	if s.Classes > 0 {
		return s.Classes
	}
	return defaultClasses
}

func (s Sharing) delayTarget() int64 {
	if s.DelayTarget > 0 {
		return s.DelayTarget
	}
	return defaultDelayTarget
}

// Config describes a buffer to construct.
type Config struct {
	Kind       Kind
	NumOutputs int // n of the n x n switch
	Capacity   int // total slots at this input port
	// Sharing tunes DT/FB/BSHARE; leave zero for the 1988 kinds.
	Sharing Sharing
}

// validateSharing checks the policy-tuning knobs against the kind,
// independent of geometry (ParseSpec calls it before NumOutputs and
// Capacity are known).
func (cfg Config) validateSharing() error {
	s := cfg.Sharing
	if s.Alpha < 0 || math.IsNaN(s.Alpha) || math.IsInf(s.Alpha, 0) {
		return fmt.Errorf("buffer: alpha must be positive and finite, got %g: %w", s.Alpha, cfgerr.ErrBadSharing)
	}
	if s.Classes < 0 {
		return fmt.Errorf("buffer: classes must be positive, got %d: %w", s.Classes, cfgerr.ErrBadSharing)
	}
	if s.DelayTarget < 0 {
		return fmt.Errorf("buffer: delay target must be positive, got %d: %w", s.DelayTarget, cfgerr.ErrBadSharing)
	}
	if s.Alpha != 0 && !KindModern(cfg.Kind) {
		return fmt.Errorf("buffer: alpha is only read by dt|fb|bshare, not %v (policy %s): %w",
			cfg.Kind, cfg.Kind.PolicyName(), cfgerr.ErrBadSharing)
	}
	if s.Classes != 0 && cfg.Kind != FB {
		return fmt.Errorf("buffer: classes is only read by fb, not %v (policy %s): %w",
			cfg.Kind, cfg.Kind.PolicyName(), cfgerr.ErrBadSharing)
	}
	if s.DelayTarget != 0 && cfg.Kind != BSHARE {
		return fmt.Errorf("buffer: delay target is only read by bshare, not %v (policy %s): %w",
			cfg.Kind, cfg.Kind.PolicyName(), cfgerr.ErrBadSharing)
	}
	return nil
}

// Validate checks the config without constructing anything. Errors wrap
// the cfgerr sentinels (ErrBadPorts, ErrBadCapacity, ErrBadKind,
// ErrBadSharing); the same convention holds for sw.Config,
// netsim.Config, and comcobb.Config.
func (cfg Config) Validate() error {
	if cfg.Kind < FIFO || int(cfg.Kind) >= len(kindNames) {
		return fmt.Errorf("buffer: unknown kind %v: %w", cfg.Kind, cfgerr.ErrBadKind)
	}
	if cfg.NumOutputs <= 0 {
		return fmt.Errorf("buffer: NumOutputs must be positive, got %d: %w", cfg.NumOutputs, cfgerr.ErrBadPorts)
	}
	if cfg.Capacity <= 0 {
		return fmt.Errorf("buffer: Capacity must be positive, got %d: %w", cfg.Capacity, cfgerr.ErrBadCapacity)
	}
	if err := cfg.validateSharing(); err != nil {
		return err
	}
	// Static partitions must divide evenly, or some queue (or class)
	// would own a fraction of a slot: SAMQ/SAFC partition across outputs,
	// FB's reserved quotas partition across priority classes.
	if (cfg.Kind == SAMQ || cfg.Kind == SAFC) && cfg.Capacity%cfg.NumOutputs != 0 {
		return fmt.Errorf("buffer: %v (policy %s) capacity %d not divisible by %d outputs: %w",
			cfg.Kind, cfg.Kind.PolicyName(), cfg.Capacity, cfg.NumOutputs, cfgerr.ErrBadCapacity)
	}
	if cfg.Kind == FB {
		classes := cfg.Sharing.classes()
		if classes > cfg.Capacity {
			return fmt.Errorf("buffer: FB (policy %s) wants %d classes in %d slots: %w",
				cfg.Kind.PolicyName(), classes, cfg.Capacity, cfgerr.ErrBadSharing)
		}
		if cfg.Capacity%classes != 0 {
			return fmt.Errorf("buffer: %v (policy %s) capacity %d not divisible by %d classes: %w",
				cfg.Kind, cfg.Kind.PolicyName(), cfg.Capacity, classes, cfgerr.ErrBadCapacity)
		}
	}
	return nil
}

// New constructs a per-port buffer: one storage group owned by one view.
// SAMQ and SAFC statically partition Capacity across NumOutputs queues,
// so Capacity must be a positive multiple of NumOutputs (the paper:
// "they can only have an even number of slots"); FB likewise partitions
// its reserved quotas across classes. FIFO, DAMQ, DT, and BSHARE accept
// any positive capacity. For one group spanning a whole switch, use
// NewSharedGroup.
func New(cfg Config) (*Composed, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &newPort(cfg).Composed, nil
}

// MustNew is New for tests and examples with known-good configs.
func MustNew(cfg Config) *Composed {
	b, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return b
}
