// Package cfgerr defines the sentinel validation errors shared by the
// simulator Config types (netsim.Config, sw.Config, comcobb.Config,
// buffer.Config). Every Validate method and parser wraps one of these
// with %w and a package-qualified message, so callers — the facade, the
// CLIs, and tests — classify failures with errors.Is instead of matching
// ad-hoc error strings.
package cfgerr

import "errors"

var (
	// ErrBadKind reports an unknown buffer organization.
	ErrBadKind = errors.New("invalid buffer kind")
	// ErrBadCapacity reports a slot count that is non-positive or not
	// storable by the selected organization (e.g. SAMQ capacity not
	// divisible by the port count).
	ErrBadCapacity = errors.New("invalid capacity")
	// ErrBadPorts reports a non-positive port or output count, or a
	// switch wider than the arbiter's 64 outputs.
	ErrBadPorts = errors.New("invalid port count")
	// ErrBadRadix reports an unbuildable radix/width combination, or a
	// radix above the arbiter's 64 outputs.
	ErrBadRadix = errors.New("invalid radix or network width")
	// ErrBadLoad reports an offered load outside [0, 1].
	ErrBadLoad = errors.New("load out of range")
	// ErrBadTraffic reports an unknown or inconsistent traffic spec.
	ErrBadTraffic = errors.New("invalid traffic spec")
	// ErrBadPolicy reports an unknown arbitration policy name.
	ErrBadPolicy = errors.New("invalid arbitration policy")
	// ErrBadProtocol reports an unknown flow-control protocol name.
	ErrBadProtocol = errors.New("invalid protocol")
	// ErrBadPacketSize reports packet-length bounds that are empty,
	// non-positive, or larger than the simulator can store.
	ErrBadPacketSize = errors.New("invalid packet size")
	// ErrBadTiming reports a negative delay or simulation span (a
	// per-hop or per-packet cycle count, a warmup, or a measurement
	// window).
	ErrBadTiming = errors.New("invalid timing")
	// ErrBadFaultRate reports a fault-injection rate outside [0, 1].
	ErrBadFaultRate = errors.New("fault rate out of range")
	// ErrBadRetryLimit reports a negative retransmit retry limit or
	// backoff in a fault config.
	ErrBadRetryLimit = errors.New("invalid retry limit")
	// ErrBadWorkers reports an intra-run worker count the network cannot
	// shard to (more workers than switches per stage).
	ErrBadWorkers = errors.New("invalid worker count")
	// ErrBadSharing reports inconsistent buffer-sharing knobs: a sharing
	// parameter (alpha/classes/delay target) out of range or set for a
	// kind whose admission policy does not read it, or a shared-pool
	// request for a statically partitioned kind.
	ErrBadSharing = errors.New("invalid sharing config")
	// ErrBadCheckpoint reports a checkpoint stream that cannot be
	// restored: wrong magic, truncation, a failed CRC, or decoded state
	// that violates a structural invariant. Every decode failure short of
	// a version skew wraps this sentinel; corrupted inputs never panic.
	ErrBadCheckpoint = errors.New("invalid checkpoint")
	// ErrCheckpointVersion reports a checkpoint written by an
	// incompatible codec version — a well-formed stream this build cannot
	// interpret, as opposed to a corrupted one.
	ErrCheckpointVersion = errors.New("unsupported checkpoint version")
)
