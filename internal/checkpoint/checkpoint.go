// Package checkpoint is the versioned binary codec under the simulator
// checkpoint/restore path (DESIGN.md §13). It provides the framing —
// magic, format version, section tags, and a CRC32 trailer — plus one
// Codec whose bounds-checked primitives either write or read, so a
// section is a single walk, and an atomic file writer. Each stateful
// component walks its own registers with a Walk(*Codec) method in its
// own package (buffer.SlotPool, arbiter.Arbiter, stats.Summary,
// stats.Histogram, rng.Source, packet.Packet, the traffic patterns,
// and obs.Observer, whose Walk also takes the cycle), and a simulator
// composes those walks into its sections (netsim.(*Sim).Checkpoint /
// netsim.RestoreSim).
//
// Framing, in order:
//
//	magic    [8]byte  "DAMQCKPT"
//	version  uint32   little-endian, currently 1
//	length   uint64   payload byte count
//	payload  [length]byte   section-tagged body
//	crc      uint32   CRC-32 (IEEE) of everything before it
//
// Inside the payload each section is `tag uint8, length uint64, body`.
// Decoding is defensive end to end: every failure — short stream, bad
// magic, CRC mismatch, impossible count, trailing garbage — returns an
// error wrapping cfgerr.ErrBadCheckpoint (or cfgerr.ErrCheckpointVersion
// for a well-formed stream from an incompatible codec), never a panic.
package checkpoint

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"damq/internal/cfgerr"
)

// Version is the current checkpoint format version. It changes whenever
// the payload layout changes incompatibly; there is no cross-version
// migration — a version-skewed stream fails with ErrCheckpointVersion.
const Version = 1

// magic identifies a checkpoint stream. Any other prefix fails decoding
// immediately with a "not a checkpoint" error.
var magic = [8]byte{'D', 'A', 'M', 'Q', 'C', 'K', 'P', 'T'}

// headerLen is the byte count before the payload: magic + version + length.
const headerLen = len(magic) + 4 + 8

// maxPayload caps the payload length a stream may declare; a larger
// declaration is corruption, rejected before any payload is read. It
// sits above the largest simulator state netsim's restore geometry check
// (checkpointSanity) admits: at most 4M buffer slots with their
// registers and packet records (about 0.4 GB), 33M queue register sets
// (about 0.8 GB) and 512 radix-256 arbiters (about 0.3 GB). Source
// backlogs and observer series grow with run length instead; only tens
// of millions of queued packets would reach the cap.
const maxPayload = 1 << 32

// readChunk bounds how far NewDecoder allocates ahead of the bytes a
// stream has delivered. A stream up to this size is read into one buffer
// of its exact size; a longer one doubles its buffer up to its exact
// size. A length header that lies below maxPayload therefore costs at
// most readChunk plus twice the bytes actually present.
const readChunk = 1 << 24

// errf wraps a decode failure in the corrupt-checkpoint sentinel.
func errf(format string, args ...any) error {
	return fmt.Errorf("checkpoint: "+format+": %w", append(args, cfgerr.ErrBadCheckpoint)...)
}

// Codec walks a checkpoint payload in one direction. An encoding Codec
// (NewEncoder) appends the value behind each pointer it is handed; a
// decoding one (NewDecoder) reads the next value into it. A section's
// layout is therefore one walk function run in both directions, so the
// writer and the reader cannot drift apart.
//
// Decoding keeps a sticky error: after the first failure every read
// leaves its target alone, so a caller can walk a whole structure and
// check Err once. All counts are bounded by the remaining payload before
// any allocation sized from them. A Section body's error poisons an
// encoding Codec the same way, and Emit reports it.
type Codec struct {
	decoding bool
	buf      []byte // encoding: header room, then the payload so far; decoding: payload (or section body)
	off      int    // decoding read offset
	err      error
}

// NewEncoder returns a Codec that appends to an empty payload.
func NewEncoder() *Codec { return NewEncoderSize(0) }

// NewEncoderSize is NewEncoder with room reserved for an n-byte payload,
// so a caller that checkpoints repeatedly can size each stream from the
// last one instead of growing it from empty. The buffer also reserves
// the frame header, which Emit fills in place: a stream is built without
// copying its payload.
func NewEncoderSize(n int) *Codec {
	return &Codec{buf: make([]byte, headerLen, headerLen+n+4)}
}

// Len returns the number of payload bytes encoded so far.
func (c *Codec) Len() int { return len(c.buf) - headerLen }

// NewDecoder reads one stream from r and verifies its envelope. It reads
// the header first and sizes its buffer from the declared payload
// length; a declaration over maxPayload fails before any payload read,
// and so does a byte after the stream's end.
func NewDecoder(r io.Reader) (*Codec, error) {
	var hdr [headerLen]byte
	k, err := io.ReadFull(r, hdr[:])
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return nil, errf("read: %v", err)
	}
	n, err := parseHeader(hdr[:k])
	if err != nil {
		return nil, err
	}
	size := headerLen + int(n) + 4
	raw := make([]byte, headerLen, min(size, readChunk))
	copy(raw, hdr[:])
	for {
		k, err := io.ReadFull(r, raw[len(raw):cap(raw)])
		raw = raw[:len(raw)+k]
		if err != nil {
			return nil, errf("stream ends after %d of its %d bytes: %v", len(raw), size, err)
		}
		if len(raw) == size {
			break
		}
		grown := make([]byte, len(raw), cap(raw)+min(size-cap(raw), cap(raw)))
		copy(grown, raw)
		raw = grown
	}
	var extra [1]byte
	if k, err := io.ReadFull(r, extra[:]); k > 0 {
		return nil, errf("trailing bytes after the %d-byte stream", size)
	} else if err != io.EOF {
		return nil, errf("read: %v", err)
	}
	return NewDecoderBytes(raw)
}

// parseHeader checks a stream's magic and version and returns the
// payload length its header declares, at most maxPayload.
func parseHeader(raw []byte) (uint64, error) {
	if len(raw) < len(magic) || string(raw[:len(magic)]) != string(magic[:]) {
		return 0, errf("not a checkpoint stream (bad magic)")
	}
	if len(raw) < headerLen {
		return 0, errf("truncated header (%d bytes)", len(raw))
	}
	if v := binary.LittleEndian.Uint32(raw[len(magic):]); v != Version {
		return 0, fmt.Errorf("checkpoint: stream version %d, this build reads version %d: %w",
			v, Version, cfgerr.ErrCheckpointVersion)
	}
	n := binary.LittleEndian.Uint64(raw[len(magic)+4:])
	if n > maxPayload || n > uint64(math.MaxInt-headerLen-4) {
		return 0, errf("declared payload length %d exceeds the %d-byte cap", n, uint64(maxPayload))
	}
	return n, nil
}

// NewDecoderBytes verifies the envelope (magic, version, length, CRC) of
// a fully buffered stream up front and returns a Codec that reads its
// payload.
func NewDecoderBytes(raw []byte) (*Codec, error) {
	n, err := parseHeader(raw)
	if err != nil {
		return nil, err
	}
	if uint64(len(raw)) != uint64(headerLen)+n+4 {
		return nil, errf("payload length %d does not match stream size %d", n, len(raw))
	}
	body := raw[:len(raw)-4]
	want := binary.LittleEndian.Uint32(raw[len(raw)-4:])
	if got := crc32.ChecksumIEEE(body); got != want {
		return nil, errf("CRC mismatch (stream %08x, computed %08x)", want, got)
	}
	return &Codec{decoding: true, buf: raw[headerLen : len(raw)-4]}, nil
}

// Decoding reports whether c reads (true) or writes (false). Walks
// branch on it only to allocate what they read into and to apply and
// validate what they read.
func (c *Codec) Decoding() bool { return c.decoding }

// fail records the first error and poisons all further reads.
func (c *Codec) fail(format string, args ...any) {
	if c.err == nil {
		c.err = errf(format, args...)
	}
}

// Err returns the sticky error, if any.
func (c *Codec) Err() error { return c.err }

// Remaining returns the unread payload byte count of a decoding Codec.
func (c *Codec) Remaining() int { return len(c.buf) - c.off }

// take consumes n bytes, or poisons the Codec if they are not there.
func (c *Codec) take(n int) []byte {
	if c.err != nil || n < 0 || n > c.Remaining() {
		c.fail("truncated at offset %d (need %d bytes, have %d)", c.off, n, c.Remaining())
		return nil
	}
	b := c.buf[c.off : c.off+n]
	c.off += n
	return b
}

// U64 walks a little-endian uint64.
func (c *Codec) U64(p *uint64) {
	if !c.decoding {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, *p)
	} else if b := c.take(8); b != nil {
		*p = binary.LittleEndian.Uint64(b)
	}
}

// I64 walks an int64 (two's complement, little-endian).
func (c *Codec) I64(p *int64) {
	v := uint64(*p)
	if c.U64(&v); c.decoding {
		*p = int64(v)
	}
}

// Int walks an int as an int64; decoding rejects values outside the
// platform int range.
func (c *Codec) Int(p *int) {
	v := int64(*p)
	if c.I64(&v); !c.decoding {
		return
	}
	if int64(int(v)) != v {
		c.fail("integer %d overflows int", v)
		return
	}
	*p = int(v)
}

// I32 walks a little-endian int32.
func (c *Codec) I32(p *int32) {
	if !c.decoding {
		c.buf = binary.LittleEndian.AppendUint32(c.buf, uint32(*p))
	} else if b := c.take(4); b != nil {
		*p = int32(binary.LittleEndian.Uint32(b))
	}
}

// F64 walks a float64 as its IEEE-754 bit pattern.
func (c *Codec) F64(p *float64) {
	v := math.Float64bits(*p)
	if c.U64(&v); c.decoding {
		*p = math.Float64frombits(v)
	}
}

// Bool walks a bool as one byte; decoding rejects bytes other than 0
// and 1.
func (c *Codec) Bool(p *bool) {
	if !c.decoding {
		v := uint8(0)
		if *p {
			v = 1
		}
		c.buf = append(c.buf, v)
		return
	}
	switch b := c.take(1); {
	case b == nil:
	case b[0] > 1:
		c.fail("bool byte %d at offset %d", b[0], c.off-1)
	default:
		*p = b[0] == 1
	}
}

// Count walks a collection length. Decoding verifies the collection
// could fit in the remaining payload at minSize bytes per element, so
// corrupted counts cannot drive huge allocations or quadratic loops; on
// failure *n is 0.
func (c *Codec) Count(n *int, minSize int) {
	v := uint64(*n)
	if c.U64(&v); !c.decoding {
		return
	}
	*n = 0
	if c.err != nil {
		return
	}
	if v > uint64(c.Remaining()/max(minSize, 1)) {
		c.fail("count %d exceeds remaining payload (%d bytes)", v, c.Remaining())
		return
	}
	*n = int(v)
}

// FixedLen walks the length prefix of a collection whose length n the
// walker's own geometry fixes, such as a register file sized at
// construction, so its elements can be walked in place. It returns the
// length read: n when encoding or once c has failed. A decoding caller
// that gets another value rejects the stream as written for another
// geometry.
func (c *Codec) FixedLen(n int) int {
	v := uint64(n)
	c.U64(&v)
	return int(v)
}

// Bytes walks a length-prefixed byte string. Decoded bytes alias the
// stream buffer.
func (c *Codec) Bytes(p *[]byte) {
	n := len(*p)
	if c.Count(&n, 1); c.decoding {
		*p = c.take(n)
	} else {
		c.buf = append(c.buf, *p...)
	}
}

// String walks a length-prefixed string.
func (c *Codec) String(p *string) {
	b := []byte(*p)
	if c.Bytes(&b); c.decoding {
		*p = string(b)
	}
}

// resize walks the length of a slice of size-byte elements. Decoding
// replaces *p with a fresh slice of the length read, nil when empty, for
// the caller to walk the elements into.
func resize[T any](c *Codec, p *[]T, size int) {
	n := len(*p)
	if c.Count(&n, size); c.decoding {
		*p = nil
		if n > 0 {
			*p = make([]T, n)
		}
	}
}

// I64s walks a length-prefixed []int64.
func (c *Codec) I64s(p *[]int64) {
	resize(c, p, 8)
	for i := range *p {
		c.I64(&(*p)[i])
	}
}

// I32s walks a length-prefixed []int32.
func (c *Codec) I32s(p *[]int32) {
	resize(c, p, 4)
	for i := range *p {
		c.I32(&(*p)[i])
	}
}

// Ints walks a length-prefixed []int (as int64s).
func (c *Codec) Ints(p *[]int) {
	resize(c, p, 8)
	for i := range *p {
		c.Int(&(*p)[i])
	}
}

// Section walks one tagged section: tag, byte length, body. Encoding
// appends the section, patching its length in after body runs, so
// sections nest without pre-computing sizes. Decoding runs body over
// the next section's bytes when that section carries tag, and returns
// false, consuming nothing, at the end of the payload or when the next
// section has another tag. A body error, or a decoded body left with
// unread bytes, poisons c.
func (c *Codec) Section(tag uint8, body func(*Codec) error) bool {
	if c.err != nil {
		return false
	}
	if !c.decoding {
		c.buf = append(c.buf, tag)
		at := len(c.buf)
		c.buf = binary.LittleEndian.AppendUint64(c.buf, 0) // length placeholder
		if err := body(c); c.err == nil {
			c.err = err
		}
		binary.LittleEndian.PutUint64(c.buf[at:], uint64(len(c.buf)-at-8))
		return true
	}
	if c.Remaining() == 0 || c.buf[c.off] != tag {
		return false
	}
	c.off++
	var n int
	c.Count(&n, 1)
	sub := &Codec{decoding: true, buf: c.take(n)}
	if c.err == nil {
		if c.err = body(sub); c.err == nil {
			c.err = sub.Done()
		}
	}
	return true
}

// Done verifies a decoding Codec consumed its input exactly: no sticky
// error and no trailing bytes.
func (c *Codec) Done() error {
	if c.err != nil {
		return c.err
	}
	if r := c.Remaining(); r != 0 {
		return errf("%d trailing bytes after decode", r)
	}
	return nil
}

// Emit frames an encoding Codec's payload — magic, version, length,
// payload, CRC trailer — and writes it to w. It writes nothing and
// returns the sticky error if a Section body failed.
func (c *Codec) Emit(w io.Writer) error {
	if c.err != nil {
		return c.err
	}
	out := c.buf
	copy(out, magic[:])
	binary.LittleEndian.PutUint32(out[len(magic):], Version)
	binary.LittleEndian.PutUint64(out[len(magic)+4:], uint64(c.Len()))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
	_, err := w.Write(out)
	return err
}

// WriteFile atomically replaces path with whatever write produces: the
// bytes go to a temporary file in the same directory, are fsynced, and
// only then renamed over path, with a directory fsync sealing the rename.
// A crash or SIGKILL at any point leaves either the old complete file or
// the new complete file — never a torn mix — which is what lets a
// checkpoint file be overwritten in place every N cycles.
func WriteFile(path string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return fmt.Errorf("checkpoint: create temp: %w", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = write(tmp); err != nil {
		return fmt.Errorf("checkpoint: write %s: %w", path, err)
	}
	// CreateTemp opens 0600; widen to the usual artifact mode before the
	// rename so the published file matches a plain os.WriteFile's.
	if err = tmp.Chmod(0o644); err != nil {
		return fmt.Errorf("checkpoint: chmod %s: %w", tmp.Name(), err)
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("checkpoint: sync %s: %w", tmp.Name(), err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("checkpoint: close %s: %w", tmp.Name(), err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("checkpoint: rename: %w", err)
	}
	if d, derr := os.Open(dir); derr == nil {
		// Seal the rename; ignore sync errors on filesystems that do not
		// support directory fsync — the rename itself is still atomic.
		d.Sync()
		d.Close()
	}
	return nil
}
