package comcobb

import "math/bits"

// wireSymbol is what one link carries in one clock cycle: either nothing,
// a start bit, or a data byte. The chip's links are 8 data wires plus
// framing; the start bit occupies its own cycle before the header byte
// (Section 3.2). The parity wire (par) carries odd parity over the data
// byte; a fault-checking receiver compares it against the byte it sees,
// so any single-bit corruption of the data wires is detected. Fault-free
// chips ignore it.
type wireSymbol struct {
	start bool
	valid bool
	b     byte
	par   bool
}

// oddParity is the parity wire's value for byte b.
// damqvet:hotpath
func oddParity(b byte) bool { return bits.OnesCount8(b)&1 == 1 }

// dataSymbol builds a valid data-byte symbol with its parity wire set.
// damqvet:hotpath
func dataSymbol(b byte) wireSymbol {
	return wireSymbol{valid: true, b: b, par: oddParity(b)}
}

// Link is a unidirectional point-to-point connection delivering one
// symbol per clock cycle with the paper's single-cycle synchronized
// transmission. The producer writes during its phase-0 step; the consumer
// samples during its own phase-0 step of the same cycle (the network
// ticker orders producers before consumers).
type Link struct {
	cur wireSymbol
	// downstream is the input port fed by this link, used by the
	// producer's flow control to probe free buffer space; nil for sinks.
	downstream *InPort
	// sink collects delivered symbols when there is no downstream port
	// (testbench memories / the local processor).
	sink []wireSymbol
	// nack is the reverse-direction NACK wire: a fault-checking receiver
	// raises it when it drops a packet on a parity error, and the
	// upstream driver consumes it with TakeNACK to trigger retransmission.
	nack bool
}

// postNACK raises the link's NACK wire (receiver side).
// damqvet:hotpath
func (l *Link) postNACK() { l.nack = true }

// TakeNACK reads and clears the NACK wire (sender side).
// damqvet:hotpath
func (l *Link) TakeNACK() bool {
	n := l.nack
	l.nack = false
	return n
}

// drive places this cycle's symbol on the wire.
// damqvet:hotpath
func (l *Link) drive(s wireSymbol) { l.cur = s }

// sample reads this cycle's symbol and clears the wire.
// damqvet:hotpath
func (l *Link) sample() wireSymbol {
	s := l.cur
	l.cur = wireSymbol{}
	return s
}

// collect appends the current symbol to the sink (used by links that end
// outside the modeled network).
// damqvet:hotpath
func (l *Link) collect() {
	s := l.sample()
	if s.start || s.valid {
		l.sink = append(l.sink, s)
	}
}

// AppendWire appends a first-of-message packet's on-wire symbol sequence
// to dst and returns the extended slice: start bit, header byte, length
// byte, then data. Drivers encoding a stream of packets pass their script
// buffer as dst so encoding reuses its capacity.
// damqvet:hotpath
func AppendWire(dst []wireSymbol, header byte, data []byte) []wireSymbol {
	if len(data) == 0 || len(data) > MaxDataBytes {
		panic("comcobb: packet data must be 1..32 bytes")
	}
	dst = append(dst, wireSymbol{start: true},
		dataSymbol(header),
		dataSymbol(byte(len(data))))
	for _, b := range data {
		dst = append(dst, dataSymbol(b))
	}
	return dst
}

// AppendWireCont appends a continuation packet's symbols to dst: start
// bit, header byte, then data with no length byte — the receiving
// router's circuit table must carry ContLength == len(data).
// damqvet:hotpath
func AppendWireCont(dst []wireSymbol, header byte, data []byte) []wireSymbol {
	if len(data) == 0 || len(data) > MaxDataBytes {
		panic("comcobb: packet data must be 1..32 bytes")
	}
	dst = append(dst, wireSymbol{start: true}, dataSymbol(header))
	for _, b := range data {
		dst = append(dst, dataSymbol(b))
	}
	return dst
}

// DecodeWire parses a sink's collected symbols back into packets,
// returning (header, data) pairs. It is the inverse of AppendWire (all
// packets carry length bytes) and tolerates idle gaps between packets.
func DecodeWire(syms []wireSymbol) []DecodedPacket {
	return DecodeWireWith(syms, nil)
}

// DecodeWireWith decodes a capture that may contain continuation packets.
// contLength maps a header byte to that circuit's continuation length; a
// header absent from the map (or a nil map) is decoded as length-carrying.
// A real receiver knows this from its own circuit tables, exactly like a
// switch's router does.
func DecodeWireWith(syms []wireSymbol, contLength map[byte]int) []DecodedPacket {
	return DecodeWireAppend(nil, syms, contLength)
}

// DecodeWireAppend is DecodeWireWith appending into caller-provided
// scratch: repeated decoders (testbenches polling a sink every few cycles)
// pass dst[:0] to reuse the packet slice across calls. The payload of each
// DecodedPacket is still freshly allocated — it must outlive the capture.
func DecodeWireAppend(dst []DecodedPacket, syms []wireSymbol, contLength map[byte]int) []DecodedPacket {
	out := dst
	i := 0
	for i < len(syms) {
		if !syms[i].start {
			i++
			continue
		}
		if i+1 >= len(syms) {
			break
		}
		hdr := syms[i+1].b
		var n, dataAt int
		if cl, ok := contLength[hdr]; ok && cl > 0 {
			n, dataAt = cl, i+2
		} else {
			if i+2 >= len(syms) {
				break
			}
			n, dataAt = int(syms[i+2].b), i+3
		}
		data := make([]byte, 0, n)
		for j := 0; j < n && dataAt+j < len(syms); j++ {
			data = append(data, syms[dataAt+j].b)
		}
		out = append(out, DecodedPacket{Header: hdr, Data: data})
		i = dataAt + n
	}
	return out
}

// DecodedPacket is one packet recovered from a wire capture.
type DecodedPacket struct {
	Header byte
	Data   []byte
}
