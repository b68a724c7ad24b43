package comcobb

import (
	"bytes"
	"fmt"
	"testing"
)

// newTestChip builds a chip with tracing and a simple circuit table on
// input 0: header h routes to output h%5 (except 0, its own pair) with
// new header h+1.
func newTestChip(t *testing.T) *Chip {
	t.Helper()
	c := NewChip(Config{Trace: &Trace{}})
	for in := 0; in < NumPorts; in++ {
		for h := 0; h < 16; h++ {
			out := h % NumPorts
			if out == in && in != ProcPort {
				continue
			}
			if err := c.In(in).Router().Set(byte(h), Route{Out: out, NewHeader: byte(h + 1)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return c
}

func payload(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(0x10 + i)
	}
	return b
}

// runPacket drives one packet into input port in and ticks until the
// chip is quiet, returning the trace.
func runPacket(t *testing.T, c *Chip, in int, header byte, data []byte, cycles int) {
	t.Helper()
	d := NewDriver(c.InLink(in))
	d.Queue(header, data, 0)
	for i := 0; i < cycles; i++ {
		d.Tick()
		c.Tick()
	}
}

// TestCutThroughTiming is the repo's Table 1: a packet arriving at an
// idle switch must produce the outgoing start bit exactly four cycles
// after the incoming one, independent of packet length.
func TestCutThroughTiming(t *testing.T) {
	for _, n := range []int{1, 4, 8, 20, 32} {
		c := newTestChip(t)
		runPacket(t, c, 0, 0x01, payload(n), 50)
		tr := c.Trace()

		in, ok := tr.Find("in[0]", "start bit detected; synchronizer armed")
		if !ok {
			t.Fatalf("n=%d: no start bit event", n)
		}
		out, ok := tr.Find("out[1]", "start bit transmitted")
		if !ok {
			t.Fatalf("n=%d: no outgoing start bit", n)
		}
		if got := out.Cycle - in.Cycle; got != 4 {
			for _, e := range tr.Events {
				t.Log(e)
			}
			t.Fatalf("n=%d: turn-around = %d cycles, want 4", n, got)
		}
	}
}

// TestTable1EventSchedule pins the full phase-by-phase schedule of the
// paper's Table 1 for a cut-through packet arriving at cycle 0.
func TestTable1EventSchedule(t *testing.T) {
	c := newTestChip(t)
	runPacket(t, c, 0, 0x01, payload(8), 40)
	tr := c.Trace()

	want := []struct {
		cycle int64
		phase int
		unit  string
		msg   string
	}{
		{0, 0, "in[0]", "start bit detected; synchronizer armed"},
		{2, 0, "in[0]", "header byte 0x01 latched into header register"},
		{2, 1, "in[0]", "routed to output 1, new header 0x02; first slot 0 enqueued"},
		{3, 0, "in[0]", "length byte 8 loaded into router"},
		{3, 1, "in[0]", "length 8 latched into write counter"},
		{3, 1, "out[1]", "crossbar grant latched: input 0 queue 1 (len 8)"},
		{4, 0, "out[1]", "start bit transmitted"},
		{5, 0, "out[1]", "header byte 0x02 transmitted"},
		{6, 0, "out[1]", "length byte 8 transmitted; read counter loaded"},
	}
	for _, w := range want {
		e, ok := tr.Find(w.unit, w.msg)
		if !ok {
			for _, ev := range tr.Events {
				t.Log(ev)
			}
			t.Fatalf("missing event: %s %q", w.unit, w.msg)
		}
		if e.Cycle != w.cycle || e.Phase != w.phase {
			t.Errorf("%s %q at cycle %d phase %d, want cycle %d phase %d",
				w.unit, w.msg, e.Cycle, e.Phase, w.cycle, w.phase)
		}
	}
}

// TestPacketIntegrity: data delivered downstream must be byte-identical,
// with the rewritten header, across all packet lengths.
func TestPacketIntegrity(t *testing.T) {
	for n := 1; n <= MaxDataBytes; n++ {
		c := newTestChip(t)
		runPacket(t, c, 0, 0x01, payload(n), 60)
		got := c.Delivered(1)
		if len(got) != 1 {
			t.Fatalf("n=%d: delivered %d packets", n, len(got))
		}
		if got[0].Header != 0x02 {
			t.Fatalf("n=%d: header = %#x, want 0x02 (rewritten)", n, got[0].Header)
		}
		if !bytes.Equal(got[0].Data, payload(n)) {
			t.Fatalf("n=%d: payload corrupted: %v", n, got[0].Data)
		}
	}
}

// TestSlotAccounting: after the packet leaves, every slot is back on the
// free list; during reception the footprint matches ceil(n/8).
func TestSlotAccounting(t *testing.T) {
	c := newTestChip(t)
	if c.In(0).FreeSlots() != DefaultSlots {
		t.Fatalf("fresh chip free slots = %d", c.In(0).FreeSlots())
	}
	runPacket(t, c, 0, 0x01, payload(20), 60)
	if c.In(0).FreeSlots() != DefaultSlots {
		t.Fatalf("slots leaked: free = %d, want %d", c.In(0).FreeSlots(), DefaultSlots)
	}
}

// TestBufferedWhenOutputBusy: two packets from different inputs to the
// same output — the second is buffered, not cut through, and both arrive
// intact.
func TestBufferedWhenOutputBusy(t *testing.T) {
	c := newTestChip(t)
	d0 := NewDriver(c.InLink(0))
	d2 := NewDriver(c.InLink(2))
	d0.Queue(0x01, payload(32), 0) // 0 -> out 1, long packet
	d2.Queue(0x01, payload(4), 0)  // 2 -> out 1, arrives while busy
	for i := 0; i < 120; i++ {
		d0.Tick()
		d2.Tick()
		c.Tick()
	}
	got := c.Delivered(1)
	if len(got) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(got))
	}
	if len(got[0].Data) != 32 || len(got[1].Data) != 4 {
		t.Fatalf("delivery order/sizes wrong: %d, %d", len(got[0].Data), len(got[1].Data))
	}
	// The second packet cannot have been cut through: its start bit must
	// come after the first packet's last byte.
	outs := c.Trace().FindAll("out[1]")
	var starts []int64
	for _, e := range outs {
		if e.Msg == "start bit transmitted" {
			starts = append(starts, e.Cycle)
		}
	}
	if len(starts) != 2 {
		t.Fatalf("start bits = %v", starts)
	}
	// First packet occupies out[1] from its start until start+2+32 data.
	if starts[1] <= starts[0]+int64(2+32) {
		t.Fatalf("second packet started at %d, inside first packet's transmission from %d", starts[1], starts[0])
	}
}

// TestNonFIFOForwarding is the DAMQ's reason to exist, at chip level:
// input 0 holds a packet for a busy output and a later packet for an idle
// output; the later packet must overtake the earlier one.
func TestNonFIFOForwarding(t *testing.T) {
	c := newTestChip(t)
	// Keep output 1 busy with a 32-byte packet from input 2.
	d2 := NewDriver(c.InLink(2))
	d2.Queue(0x01, payload(32), 0)
	// Input 0: first a packet for (busy) output 1, then one for (idle)
	// output 3.
	d0 := NewDriver(c.InLink(0))
	for i := 0; i < 4; i++ { // let input 2 win output 1 first
		d2.Tick()
		d0.Tick()
		c.Tick()
	}
	d0.Queue(0x01, payload(8), 0) // -> output 1 (busy)
	d0.Queue(0x03, payload(8), 0) // -> output 3 (idle)
	for i := 0; i < 150; i++ {
		d2.Tick()
		d0.Tick()
		c.Tick()
	}
	to1 := c.Delivered(1)
	to3 := c.Delivered(3)
	if len(to1) != 2 || len(to3) != 1 {
		t.Fatalf("deliveries: out1=%d out3=%d", len(to1), len(to3))
	}
	// The overtaking is visible in the trace: out[3]'s start precedes
	// out[1]'s second start.
	var start3, secondStart1 int64 = -1, -1
	for _, e := range c.Trace().FindAll("out[3]") {
		if e.Msg == "start bit transmitted" {
			start3 = e.Cycle
			break
		}
	}
	count := 0
	for _, e := range c.Trace().FindAll("out[1]") {
		if e.Msg == "start bit transmitted" {
			count++
			if count == 2 {
				secondStart1 = e.Cycle
			}
		}
	}
	if start3 < 0 || secondStart1 < 0 {
		t.Fatal("expected transmissions missing")
	}
	if start3 >= secondStart1 {
		t.Fatalf("no overtaking: out3 start %d, out1 second start %d", start3, secondStart1)
	}
}

// TestSingleReadPort: two queues of the same input buffer must not
// transmit simultaneously even when both outputs are idle.
func TestSingleReadPort(t *testing.T) {
	c := newTestChip(t)
	d0 := NewDriver(c.InLink(0))
	d0.Queue(0x01, payload(16), 0) // -> out 1
	d0.Queue(0x03, payload(16), 0) // -> out 3
	for i := 0; i < 120; i++ {
		d0.Tick()
		c.Tick()
	}
	if len(c.Delivered(1)) != 1 || len(c.Delivered(3)) != 1 {
		t.Fatal("packets lost")
	}
	// out[3] may only start after out[1] finished reading (start1 + 2 +
	// 16 data bytes).
	e1, _ := c.Trace().Find("out[1]", "start bit transmitted")
	e3, _ := c.Trace().Find("out[3]", "start bit transmitted")
	if e3.Cycle <= e1.Cycle+int64(2+16) {
		t.Fatalf("read port shared: out1 start %d, out3 start %d", e1.Cycle, e3.Cycle)
	}
}

// TestMultiChipForwarding: two chips in series; a packet crosses both
// with 4-cycle turnaround each when idle.
func TestMultiChipForwarding(t *testing.T) {
	a := newTestChip(t)
	b := NewChip(Config{Trace: &Trace{}})
	for h := 0; h < 16; h++ {
		// Chip b input 2: route everything to output 3 for delivery.
		if err := b.In(2).Router().Set(byte(h), Route{Out: 3, NewHeader: byte(h)}); err != nil {
			t.Fatal(err)
		}
	}
	Connect(a, 1, b, 2) // a's output 1 feeds b's input 2
	net := NewNetwork(a, b)
	d := NewDriver(a.InLink(0))
	d.Queue(0x01, payload(10), 0)
	for i := 0; i < 80; i++ {
		d.Tick()
		net.Tick()
	}
	got := b.Delivered(3)
	if len(got) != 1 {
		t.Fatalf("delivered %d packets at far chip", len(got))
	}
	if !bytes.Equal(got[0].Data, payload(10)) {
		t.Fatal("payload corrupted across two hops")
	}
	// Turnaround on chip b: 4 cycles from its start-bit arrival.
	inB, ok := b.Trace().Find("in[2]", "start bit detected; synchronizer armed")
	if !ok {
		t.Fatal("chip b never saw the start bit")
	}
	outB, ok := b.Trace().Find("out[3]", "start bit transmitted")
	if !ok {
		t.Fatal("chip b never transmitted")
	}
	if outB.Cycle-inB.Cycle != 4 {
		t.Fatalf("chip b turnaround = %d, want 4", outB.Cycle-inB.Cycle)
	}
}

// TestFlowControlBlocksWhenDownstreamFull: with the downstream buffer
// full and unable to drain, the upstream output must hold its packet; it
// transmits as soon as space frees.
func TestFlowControlBlocksWhenDownstreamFull(t *testing.T) {
	a := newTestChip(t)
	b := NewChip(Config{Slots: 4, Trace: &Trace{}}) // room for one 32-byte packet
	for h := 0; h < 16; h++ {
		if err := b.In(2).Router().Set(byte(h), Route{Out: 3, NewHeader: byte(h)}); err != nil {
			t.Fatal(err)
		}
	}
	Connect(a, 1, b, 2)
	net := NewNetwork(a, b)

	// Freeze b's only drain, then send two 32-byte packets from a. The
	// first fills b's 4-slot buffer; the second must wait in a.
	b.Out(3).Hold = true
	da := NewDriver(a.InLink(0))
	da.Queue(0x01, payload(32), 0)
	da.Queue(0x01, payload(32), 0)
	for i := 0; i < 300; i++ {
		da.Tick()
		net.Tick()
	}
	startsWhileHeld := 0
	for _, e := range a.Trace().FindAll("out[1]") {
		if e.Msg == "start bit transmitted" {
			startsWhileHeld++
		}
	}
	if startsWhileHeld != 1 {
		t.Fatalf("upstream transmitted %d packets into a full downstream, want 1", startsWhileHeld)
	}
	if b.In(2).FreeSlots() != 0 {
		t.Fatalf("downstream buffer should be full, has %d free slots", b.In(2).FreeSlots())
	}
	if len(b.Delivered(3)) != 0 {
		t.Fatal("held output delivered packets")
	}

	// Release the drain: both packets flow through.
	b.Out(3).Hold = false
	for i := 0; i < 300; i++ {
		da.Tick()
		net.Tick()
	}
	got := b.Delivered(3)
	if len(got) != 2 {
		t.Fatalf("delivered %d packets after release, want 2", len(got))
	}
	for _, p := range got {
		if !bytes.Equal(p.Data, payload(32)) {
			t.Fatal("payload corrupted through back-pressure")
		}
	}
	if b.In(2).FreeSlots() != 4 {
		t.Fatalf("slots leaked downstream: %d free", b.In(2).FreeSlots())
	}
}

// TestProcessorInterface: the processor injects via port 4 and receives
// via port 4.
func TestProcessorInterface(t *testing.T) {
	c := newTestChip(t)
	// Route input 4 header 0x06 -> output 1; input 2 header 0x04 -> out 4.
	if err := c.In(4).Router().Set(0x06, Route{Out: 1, NewHeader: 0x07}); err != nil {
		t.Fatal(err)
	}
	dProc := NewDriver(c.InLink(ProcPort))
	dProc.Queue(0x06, payload(5), 0)
	dNet := NewDriver(c.InLink(2))
	dNet.Queue(0x04, payload(7), 0) // 4 % 5 == 4 -> processor
	for i := 0; i < 80; i++ {
		dProc.Tick()
		dNet.Tick()
		c.Tick()
	}
	if got := c.Delivered(1); len(got) != 1 || len(got[0].Data) != 5 {
		t.Fatalf("processor->net delivery wrong: %v", got)
	}
	if got := c.Delivered(ProcPort); len(got) != 1 || len(got[0].Data) != 7 {
		t.Fatalf("net->processor delivery wrong: %v", got)
	}
}

// TestRouterValidation covers the routing-table error paths.
func TestRouterValidation(t *testing.T) {
	c := NewChip(Config{})
	if err := c.In(0).Router().Set(0x01, Route{Out: 0}); err == nil {
		t.Error("accepted route back to own pair")
	}
	if err := c.In(0).Router().Set(0x01, Route{Out: 7}); err == nil {
		t.Error("accepted invalid port")
	}
	if _, err := c.In(0).Router().Lookup(0x55); err == nil {
		t.Error("lookup of missing circuit succeeded")
	}
	if err := c.In(ProcPort).Router().Set(0x01, Route{Out: ProcPort}); err != nil {
		t.Errorf("processor loopback should be allowed: %v", err)
	}
}

func TestNewChipPanicsOnTinyBuffer(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewChip(Config{Slots: 2})
}

func TestWireRoundTrip(t *testing.T) {
	syms := AppendWire(nil, 0x09, payload(13))
	// Prepend idle noise and append another packet.
	var capture []wireSymbol
	capture = append(capture, wireSymbol{}, wireSymbol{})
	capture = append(capture, syms...)
	capture = AppendWire(capture, 0x0a, payload(1))
	pkts := DecodeWire(capture)
	if len(pkts) != 2 {
		t.Fatalf("decoded %d packets", len(pkts))
	}
	if pkts[0].Header != 0x09 || !bytes.Equal(pkts[0].Data, payload(13)) {
		t.Fatal("first packet wrong")
	}
	if pkts[1].Header != 0x0a || len(pkts[1].Data) != 1 {
		t.Fatal("second packet wrong")
	}
}

func TestWirePanicsOnBadLength(t *testing.T) {
	for _, n := range []int{0, 33} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AppendWire accepted %d-byte payload", n)
				}
			}()
			AppendWire(nil, 0x01, make([]byte, n))
		}()
	}
}

// TestBackToBackPackets: contiguous packets on one link (next start bit
// immediately after the previous packet's last byte) must both survive.
func TestBackToBackPackets(t *testing.T) {
	c := newTestChip(t)
	d := NewDriver(c.InLink(0))
	d.Queue(0x01, payload(6), 0)
	d.Queue(0x01, payload(9), 0) // immediately follows, no idle gap
	for i := 0; i < 100; i++ {
		d.Tick()
		c.Tick()
	}
	got := c.Delivered(1)
	if len(got) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(got))
	}
	if len(got[0].Data) != 6 || len(got[1].Data) != 9 {
		t.Fatalf("sizes: %d, %d", len(got[0].Data), len(got[1].Data))
	}
}

// TestTraceNilSafe: a chip without a trace must run identically.
func TestTraceNilSafe(t *testing.T) {
	c := NewChip(Config{})
	for h := 0; h < 16; h++ {
		if out := h % NumPorts; out != 0 {
			if err := c.In(0).Router().Set(byte(h), Route{Out: out, NewHeader: byte(h)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	runPacket(t, c, 0, 0x01, payload(8), 40)
	if len(c.Delivered(1)) != 1 {
		t.Fatal("nil-trace chip lost the packet")
	}
}

// TestSoakManyPackets pushes a few hundred randomized-length packets
// through all four network inputs concurrently and checks full delivery
// and slot conservation.
func TestSoakManyPackets(t *testing.T) {
	c := newTestChip(t)
	var drivers []*Driver
	sent := map[int]int{} // per output port
	for in := 0; in < 4; in++ {
		d := NewDriver(c.InLink(in))
		drivers = append(drivers, d)
		for k := 0; k < 50; k++ {
			// Cycle through that input's legal outputs.
			h := byte((in + 1 + k%3) % NumPorts)
			if int(h) == in {
				h = byte((int(h) + 1) % NumPorts)
			}
			n := 1 + (k*7)%32
			d.Queue(h, payload(n), k%3)
			sent[int(h)%NumPorts]++
		}
	}
	for i := 0; i < 20000; i++ {
		for _, d := range drivers {
			d.Tick()
		}
		c.Tick()
	}
	totalSent, totalGot := 0, 0
	for out := 0; out < NumPorts; out++ {
		totalGot += len(c.Delivered(out))
	}
	for _, n := range sent {
		totalSent += n
	}
	if totalGot != totalSent {
		t.Fatalf("delivered %d of %d packets", totalGot, totalSent)
	}
	for in := 0; in < 4; in++ {
		if c.In(in).FreeSlots() != DefaultSlots {
			t.Fatalf("input %d leaked slots: %d free", in, c.In(in).FreeSlots())
		}
	}
}

func BenchmarkChipCutThrough(b *testing.B) {
	c := NewChip(Config{})
	for h := 0; h < 16; h++ {
		if out := h % NumPorts; out != 0 {
			if err := c.In(0).Router().Set(byte(h), Route{Out: out, NewHeader: byte(h)}); err != nil {
				b.Fatal(err)
			}
		}
	}
	d := NewDriver(c.InLink(0))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Queue(0x01, []byte{1, 2, 3, 4, 5, 6, 7, 8}, 4)
		for d.Pending() > 0 {
			d.Tick()
			c.Tick()
		}
	}
	// Drain.
	for i := 0; i < 64; i++ {
		d.Tick()
		c.Tick()
	}
	_ = fmt.Sprint(c.Cycle())
}
