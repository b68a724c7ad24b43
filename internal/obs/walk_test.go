package obs

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"

	"damq/internal/checkpoint"
)

// walkNow is the cycle the walk tests checkpoint at.
const walkNow = 100

// walkFixture returns an observer holding the instrument set the walk
// tests decode into: two counters, a gauge and a 4x10 histogram.
func walkFixture() *Observer {
	o := NewObserver()
	r := o.Registry()
	r.Counter("a")
	r.Counter("b")
	r.Gauge("g")
	r.Histogram("h", 4, 10)
	return o
}

// busyFixture is walkFixture after some activity: instrument values, an
// interval of 10 and two records.
func busyFixture() *Observer {
	o := walkFixture()
	r := o.Registry()
	r.Counter("a").Add(7)
	r.Counter("b").Inc()
	r.Gauge("g").Set(-3)
	for _, v := range []int64{3, 12, 39, 400} {
		r.Histogram("h", 4, 10).Observe(v)
	}
	o.SetInterval(10)
	o.RecordInterval(IntervalRecord{Cycle: 40, Generated: 5, Delivered: 2})
	o.RecordInterval(IntervalRecord{Cycle: 50, Generated: 9, Delivered: 6, LatencySum: 420, LatencyCount: 6})
	return o
}

// encodeObserver returns o's walk as a checkpoint payload, unframed.
func encodeObserver(t testing.TB, o *Observer) []byte {
	t.Helper()
	c := checkpoint.NewEncoder()
	if err := o.Walk(c, walkNow); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.Emit(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()[20 : buf.Len()-4]
}

// frame wraps a payload in a checkpoint frame with a valid CRC, so a
// decode reaches the observer's validation instead of the checksum.
func frame(t testing.TB, payload []byte) []byte {
	t.Helper()
	var hdr bytes.Buffer
	if err := checkpoint.NewEncoder().Emit(&hdr); err != nil {
		t.Fatal(err)
	}
	raw := append(append([]byte(nil), hdr.Bytes()[:12]...), make([]byte, 8)...)
	binary.LittleEndian.PutUint64(raw[12:], uint64(len(payload)))
	raw = append(raw, payload...)
	return binary.LittleEndian.AppendUint32(raw, crc32.ChecksumIEEE(raw))
}

// decodeObserver decodes payload into o, returning the first error of
// the walk or the codec.
func decodeObserver(t testing.TB, payload []byte, o *Observer) error {
	t.Helper()
	c, err := checkpoint.NewDecoderBytes(frame(t, payload))
	if err != nil {
		t.Fatalf("framed payload rejected: %v", err)
	}
	if err := o.Walk(c, walkNow); err != nil {
		return err
	}
	return c.Done()
}

// TestObserverWalk: a walked observer snapshots, samples and re-encodes
// like the original, and Adopt hands all of it to another observer.
func TestObserverWalk(t *testing.T) {
	o := busyFixture()
	raw := encodeObserver(t, o)
	r := walkFixture()
	r.Registry().Counter("a").Add(99) // decoding overwrites every value
	if err := decodeObserver(t, raw, r); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeObserver(t, r), raw) {
		t.Error("decoded observer re-encodes to other bytes")
	}
	want, _ := o.Snapshot().Encode()
	if got, _ := r.Snapshot().Encode(); !bytes.Equal(got, want) {
		t.Errorf("decoded snapshot\n%s\nwant\n%s", got, want)
	}

	a := NewObserver()
	a.Adopt(r)
	if got, _ := a.Snapshot().Encode(); !bytes.Equal(got, want) {
		t.Errorf("adopted snapshot\n%s\nwant\n%s", got, want)
	}
	if a.Interval() != 10 || a.Due(59) || !a.Due(60) {
		t.Errorf("adopted observer: interval %d, due at 59 %v, at 60 %v; want 10, false, true",
			a.Interval(), a.Due(59), a.Due(60))
	}
	a.Registry().Counter("a").Inc()
	a.RecordInterval(IntervalRecord{Cycle: 60})
	if r.Registry().Counter("a").Value() != 7 || len(r.Series()) != 2 ||
		!reflect.DeepEqual(r.Registry().Histogram("h", 4, 10), o.Registry().Histogram("h", 4, 10)) {
		t.Error("the adopting observer shares state with the adopted one")
	}
}

// TestObserverWalkRejects: decoding refuses instrument sets other than
// the registered one and values no run up to the checkpoint's cycle
// produces; each case differs from a valid stream in one field.
func TestObserverWalkRejects(t *testing.T) {
	for _, tc := range []struct {
		what   string
		tamper func(o *Observer)
		want   string
	}{
		{"unregistered name", func(o *Observer) {
			o.reg.counters["x"] = o.reg.counters["b"]
			delete(o.reg.counters, "b")
		}, `counter "x" where this observer registers "b"`},
		{"missing instrument", func(o *Observer) { o.reg.RemoveCounter("b") }, "1 checkpointed counters for 2"},
		{"histogram shape", func(o *Observer) {
			delete(o.reg.hists, "h")
			o.reg.Histogram("h", 3, 10)
		}, "3 restored buckets"},
		{"negative counter", func(o *Observer) { o.reg.Counter("a").Add(-8) }, "negative count -1"},
		{"negative interval", func(o *Observer) { o.interval = -1 }, "negative interval"},
		{"last sample below -1", func(o *Observer) { o.last = -2 }, "outside [-1, 100]"},
		{"last sample past now", func(o *Observer) { o.last = walkNow + 1 }, "outside [-1, 100]"},
		{"series cycles not increasing", func(o *Observer) { o.series[1].Cycle = o.series[0].Cycle }, "does not follow"},
		{"record past now", func(o *Observer) { o.series[1].Cycle = walkNow + 1 }, "past cycle 100"},
	} {
		o := busyFixture()
		tc.tamper(o)
		err := decodeObserver(t, encodeObserver(t, o), walkFixture())
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: decode = %v, want an error mentioning %q", tc.what, err, tc.want)
		}
	}
}

// FuzzObserverWalk decodes arbitrary payloads into an observer with a
// fixed instrument set. The decode must fail or leave an observer that
// re-encodes to the same payload; nothing may panic. The harness frames
// each payload with a valid CRC, so inputs reach the observer's
// validation instead of the checksum.
func FuzzObserverWalk(f *testing.F) {
	f.Add(encodeObserver(f, busyFixture()))
	f.Add(encodeObserver(f, walkFixture()))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		o := walkFixture()
		if decodeObserver(t, payload, o) != nil {
			return
		}
		if got := encodeObserver(t, o); !bytes.Equal(got, payload) {
			t.Fatalf("accepted payload re-encodes differently:\n got %x\nwant %x", got, payload)
		}
	})
}
