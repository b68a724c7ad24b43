package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"damq/internal/cfgerr"
)

// frame encodes a payload built by build into a complete framed stream.
func frame(t *testing.T, build func(c *Codec)) []byte {
	t.Helper()
	c := NewEncoder()
	build(c)
	var buf bytes.Buffer
	if err := c.Emit(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decoder opens a framed stream, failing the test on an envelope error.
func decoder(t *testing.T, raw []byte) *Codec {
	t.Helper()
	c, err := NewDecoderBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// sample holds one value of every primitive, walked by one function in
// both directions.
type sample struct {
	U64   uint64
	I64   int64
	Int   int
	I32   int32
	F64   float64
	T, F  bool
	Bytes []byte
	Str   string
	I64s  []int64
	I32s  []int32
	Ints  []int
	Empty []int64
	Count int
}

func (v *sample) walk(c *Codec) {
	c.U64(&v.U64)
	c.I64(&v.I64)
	c.Int(&v.Int)
	c.I32(&v.I32)
	c.F64(&v.F64)
	c.Bool(&v.T)
	c.Bool(&v.F)
	c.Bytes(&v.Bytes)
	c.String(&v.Str)
	c.I64s(&v.I64s)
	c.I32s(&v.I32s)
	c.Ints(&v.Ints)
	c.I64s(&v.Empty)
	c.Count(&v.Count, 1)
}

func TestPrimitiveRoundTrip(t *testing.T) {
	want := sample{
		U64: 1 << 60, I64: -5, Int: -42, I32: -9, F64: math.Pi, T: true,
		Bytes: []byte("abc"), Str: "déjà",
		I64s: []int64{1, -2, 3}, I32s: []int32{-4, 5}, Ints: []int{6, -7},
		Count: 0,
	}
	in := want
	c := decoder(t, frame(t, func(c *Codec) { in.walk(c) }))
	if !reflect.DeepEqual(in, want) {
		t.Errorf("encoding modified its input: %+v", in)
	}
	var got sample
	got.walk(c)
	if err := c.Done(); err != nil {
		t.Fatalf("Done: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip\nwant %+v\ngot  %+v", want, got)
	}
}

// TestEncoderSizeSameStream: reserving payload room changes no byte of
// the stream, whether the reservation is short, exact or generous, and
// emitting twice writes the same stream twice (Emit frames the buffer in
// place).
func TestEncoderSizeSameStream(t *testing.T) {
	in := sample{I64: -5, Str: "déjà", I64s: []int64{1, -2, 3}}
	want := frame(t, func(c *Codec) { in.walk(c) })
	for _, n := range []int{1, len(want) - headerLen - 4, 4 * len(want)} {
		c := NewEncoderSize(n)
		in.walk(c)
		if got := c.Len(); got != len(want)-headerLen-4 {
			t.Errorf("size %d: Len = %d, want %d", n, got, len(want)-headerLen-4)
		}
		for i := 0; i < 2; i++ {
			var buf bytes.Buffer
			if err := c.Emit(&buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("size %d, emit %d: stream differs from NewEncoder's", n, i+1)
			}
		}
	}
}

func TestSectionRoundTrip(t *testing.T) {
	one, body := int64(11), "body"
	raw := frame(t, func(c *Codec) {
		c.Section(1, func(c *Codec) error { c.I64(&one); return nil })
		c.Section(2, func(c *Codec) error { c.String(&body); return nil })
	})
	c := decoder(t, raw)
	var gotOne int64
	var gotBody string
	if !c.Section(1, func(c *Codec) error { c.I64(&gotOne); return nil }) || gotOne != 11 {
		t.Fatalf("section 1: %d (%v)", gotOne, c.Err())
	}
	// A section with another tag is left for the next walk.
	if c.Section(3, func(c *Codec) error { t.Error("walked section 3"); return nil }) {
		t.Error("section 3 reported present")
	}
	if !c.Section(2, func(c *Codec) error { c.String(&gotBody); return nil }) || gotBody != "body" {
		t.Fatalf("section 2: %q (%v)", gotBody, c.Err())
	}
	if c.Section(2, func(c *Codec) error { return nil }) {
		t.Error("phantom third section")
	}
	if err := c.Done(); err != nil {
		t.Errorf("Done: %v", err)
	}

	// A body that leaves bytes unread poisons the decoder.
	c = decoder(t, raw)
	c.Section(1, func(c *Codec) error { return nil })
	if !errors.Is(c.Err(), cfgerr.ErrBadCheckpoint) {
		t.Errorf("unread section body: %v", c.Err())
	}

	// A body error poisons an encoder, and Emit reports it.
	sentinel := errors.New("boom")
	e := NewEncoder()
	e.Section(1, func(c *Codec) error {
		c.Section(2, func(*Codec) error { return sentinel })
		return nil
	})
	if err := e.Emit(io.Discard); !errors.Is(err, sentinel) {
		t.Errorf("Emit after a failed section: %v", err)
	}
}

// TestDecoderDefensiveness drives the sticky-error paths: every
// corruption must yield the typed sentinel, never a panic.
func TestDecoderDefensiveness(t *testing.T) {
	one := int64(1)
	valid := frame(t, func(c *Codec) { c.I64(&one) })

	check := func(name string, raw []byte, want error) {
		t.Helper()
		if _, err := NewDecoderBytes(raw); !errors.Is(err, want) {
			t.Errorf("%s: NewDecoderBytes got %v, want %v", name, err, want)
		}
		if _, err := NewDecoder(bytes.NewReader(raw)); !errors.Is(err, want) {
			t.Errorf("%s: NewDecoder got %v, want %v", name, err, want)
		}
	}
	check("empty", nil, cfgerr.ErrBadCheckpoint)
	check("short header", valid[:10], cfgerr.ErrBadCheckpoint)

	badMagic := append([]byte(nil), valid...)
	badMagic[0] = 'X'
	check("bad magic", badMagic, cfgerr.ErrBadCheckpoint)

	skew := append([]byte(nil), valid...)
	skew[8] = 99
	check("version skew", skew, cfgerr.ErrCheckpointVersion)

	short := append([]byte(nil), valid...)
	check("truncated payload", short[:len(short)-3], cfgerr.ErrBadCheckpoint)

	flipped := append([]byte(nil), valid...)
	flipped[headerLen] ^= 0xFF
	check("CRC mismatch", flipped, cfgerr.ErrBadCheckpoint)

	check("trailing byte", append(append([]byte(nil), valid...), 0), cfgerr.ErrBadCheckpoint)

	// A length header past the stream's end fails at the end of the
	// stream; one over maxPayload fails before any payload is read.
	withLength := func(n uint64) []byte {
		raw := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint64(raw[len(magic)+4:], n)
		return raw
	}
	check("length past the stream", withLength(uint64(len(valid))), cfgerr.ErrBadCheckpoint)
	lying := withLength(maxPayload + 1)
	check("length over the cap", lying, cfgerr.ErrBadCheckpoint)
	if _, err := NewDecoder(&headerOnly{t: t, rest: lying[:headerLen]}); !errors.Is(err, cfgerr.ErrBadCheckpoint) {
		t.Errorf("length over the cap: got %v", err)
	}
	// A lie just under the cap allocates little more than readChunk
	// before the stream runs out.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	check("length at the cap", withLength(maxPayload), cfgerr.ErrBadCheckpoint)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 2*readChunk {
		t.Errorf("decoding a lying length allocated %d bytes", grew)
	}

	// A count far beyond the remaining payload fails instead of
	// allocating.
	huge := 1 << 40
	c := decoder(t, frame(t, func(c *Codec) { c.Int(&huge) }))
	n := 5
	if c.Count(&n, 8); n != 0 || c.Err() == nil {
		t.Errorf("Count accepted an impossible length %d (err %v)", n, c.Err())
	}

	// Bool bytes other than 0/1 are corruption.
	c = decoder(t, frame(t, func(c *Codec) { c.buf = append(c.buf, 2) }))
	var b bool
	if c.Bool(&b); c.Err() == nil {
		t.Error("Bool accepted byte 2")
	}

	// Trailing bytes after a complete decode are corruption.
	c = decoder(t, valid)
	if err := c.Done(); !errors.Is(err, cfgerr.ErrBadCheckpoint) {
		t.Errorf("Done with unread payload: %v", err)
	}

	// Reading past the end sticks the error and leaves the target alone.
	c = decoder(t, valid)
	var v int64
	c.I64(&v)
	v = 7
	if c.I64(&v); v != 7 || c.Err() == nil {
		t.Errorf("overread returned %d with err %v", v, c.Err())
	}
}

// headerOnly serves a stream header and fails the test on any read
// past it.
type headerOnly struct {
	t    *testing.T
	rest []byte
}

func (r *headerOnly) Read(p []byte) (int, error) {
	if len(r.rest) == 0 {
		r.t.Fatal("decoder read past the header")
	}
	n := copy(p, r.rest)
	r.rest = r.rest[n:]
	return n, nil
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.bin")

	if err := WriteFile(path, func(w io.Writer) error {
		_, err := w.Write([]byte("first"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "first" {
		t.Fatalf("after first write: %q, %v", got, err)
	}

	// A failing writer must leave the previous file untouched and no
	// temporary behind.
	sentinel := errors.New("boom")
	if err := WriteFile(path, func(w io.Writer) error {
		_, _ = w.Write([]byte("torn"))
		return sentinel
	}); !errors.Is(err, sentinel) {
		t.Fatalf("WriteFile swallowed the writer error: %v", err)
	}
	got, err = os.ReadFile(path)
	if err != nil || string(got) != "first" {
		t.Fatalf("failed write clobbered the file: %q, %v", got, err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Errorf("temporary file left behind: %v", ents)
	}

	if err := WriteFile(path, func(w io.Writer) error {
		_, err := w.Write([]byte("second"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	got, _ = os.ReadFile(path)
	if string(got) != "second" {
		t.Fatalf("after replace: %q", got)
	}
}
