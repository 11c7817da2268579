package symbolic

import (
	"fmt"

	"repro/internal/bdd"
	"repro/internal/ir"
	"repro/internal/netaddr"
)

// PacketEncoding maps packet headers onto BDD variables: source and
// destination IPv4 address, IP protocol, transport ports, the TCP ACK/RST
// bits (for "established"), and the ICMP type.
type PacketEncoding struct {
	F *bdd.Factory

	src      bitVec
	dst      bitVec
	proto    bitVec
	srcPort  bitVec
	dstPort  bitVec
	tcpAck   int
	tcpRst   int
	icmpType bitVec

	lineCache map[*ir.ACLLine]bdd.Node
}

// NewPacketEncoding allocates the packet variable space.
func NewPacketEncoding() *PacketEncoding {
	return NewPacketEncodingInto(nil)
}

// NewPacketEncodingInto is NewPacketEncoding recycling an existing
// factory: if f is non-nil it is Reset and reused, so a worker comparing
// many ACL pairs pays for one arena and op cache, not one per pair.
// Nodes from before the call are invalidated.
func NewPacketEncodingInto(f *bdd.Factory) *PacketEncoding {
	e := &PacketEncoding{lineCache: map[*ir.ACLLine]bdd.Node{}}
	n := 0
	alloc := func(w int) int {
		v := n
		n += w
		return v
	}
	src := alloc(32)
	dst := alloc(32)
	proto := alloc(8)
	sp := alloc(16)
	dp := alloc(16)
	e.tcpAck = alloc(1)
	e.tcpRst = alloc(1)
	it := alloc(8)
	if f != nil {
		f.Reset(n)
		e.F = f
	} else {
		e.F = bdd.NewFactory(n)
	}
	e.src = bitVec{f: e.F, first: src, width: 32}
	e.dst = bitVec{f: e.F, first: dst, width: 32}
	e.proto = bitVec{f: e.F, first: proto, width: 8}
	e.srcPort = bitVec{f: e.F, first: sp, width: 16}
	e.dstPort = bitVec{f: e.F, first: dp, width: 16}
	e.icmpType = bitVec{f: e.F, first: it, width: 8}
	return e
}

// SrcIPVars returns the source address variables (for projection).
func (e *PacketEncoding) SrcIPVars() []int { return e.src.vars() }

// DstIPVars returns the destination address variables (for projection).
func (e *PacketEncoding) DstIPVars() []int { return e.dst.vars() }

// NonAddrVars returns every variable that is not part of the given
// address field ("src" or "dst"), for existential projection in
// header localization.
func (e *PacketEncoding) NonAddrVars(field string) []int {
	keep := map[int]bool{}
	var vars []int
	if field == "src" {
		vars = e.src.vars()
	} else {
		vars = e.dst.vars()
	}
	for _, v := range vars {
		keep[v] = true
	}
	var out []int
	for v := 0; v < e.F.NumVars(); v++ {
		if !keep[v] {
			out = append(out, v)
		}
	}
	return out
}

// SrcPrefixBDD returns packets whose source address lies in the prefix.
func (e *PacketEncoding) SrcPrefixBDD(p netaddr.Prefix) bdd.Node {
	return e.src.prefixMatch(uint64(p.Addr), int(p.Len))
}

// DstPrefixBDD returns packets whose destination address lies in the
// prefix.
func (e *PacketEncoding) DstPrefixBDD(p netaddr.Prefix) bdd.Node {
	return e.dst.prefixMatch(uint64(p.Addr), int(p.Len))
}

func (e *PacketEncoding) wildcardBDD(v bitVec, w netaddr.Wildcard) bdd.Node {
	return v.maskedMatch(uint64(w.Addr), uint64(^uint32(w.Mask)))
}

func (e *PacketEncoding) addrSetBDD(v bitVec, ws []netaddr.Wildcard) bdd.Node {
	if len(ws) == 0 {
		return bdd.True // empty = any
	}
	out := bdd.False
	for _, w := range ws {
		out = e.F.Or(out, e.wildcardBDD(v, w))
	}
	return out
}

func (e *PacketEncoding) portSetBDD(v bitVec, rs []netaddr.PortRange) bdd.Node {
	if len(rs) == 0 {
		return bdd.True
	}
	out := bdd.False
	for _, r := range rs {
		out = e.F.Or(out, v.rangeConst(uint64(r.Lo), uint64(r.Hi)))
	}
	return out
}

// ForgetLines empties the per-line BDD cache, whose *ir.ACLLine keys
// would otherwise keep every compiled configuration alive.
func (e *PacketEncoding) ForgetLines() { clear(e.lineCache) }

// LineBDD compiles one ACL line's match condition. Results are cached per
// line, since path enumeration consults each line twice.
func (e *PacketEncoding) LineBDD(l *ir.ACLLine) bdd.Node {
	if n, ok := e.lineCache[l]; ok {
		return n
	}
	f := e.F
	n := bdd.Node(bdd.True)
	if !l.Protocol.Any {
		n = f.And(n, e.proto.eqConst(uint64(l.Protocol.Number)))
	}
	n = f.And(n, e.addrSetBDD(e.src, l.Src))
	n = f.And(n, e.addrSetBDD(e.dst, l.Dst))
	n = f.And(n, e.portSetBDD(e.srcPort, l.SrcPorts))
	n = f.And(n, e.portSetBDD(e.dstPort, l.DstPorts))
	if l.Established {
		est := f.And(e.proto.eqConst(ir.ProtoNumTCP), f.Or(f.Var(e.tcpAck), f.Var(e.tcpRst)))
		n = f.And(n, est)
	}
	if l.ICMPType >= 0 {
		n = f.And(n, f.And(e.proto.eqConst(ir.ProtoNumICMP), e.icmpType.eqConst(uint64(l.ICMPType))))
	}
	e.lineCache[l] = n
	return n
}

// PacketCube encodes a concrete packet as a total assignment cube.
func (e *PacketEncoding) PacketCube(p ir.Packet) bdd.Node {
	f := e.F
	n := e.src.eqConst(uint64(p.Src))
	n = f.And(n, e.dst.eqConst(uint64(p.Dst)))
	n = f.And(n, e.proto.eqConst(uint64(p.Protocol)))
	n = f.And(n, e.srcPort.eqConst(uint64(p.SrcPort)))
	n = f.And(n, e.dstPort.eqConst(uint64(p.DstPort)))
	n = f.And(n, f.Lit(e.tcpAck, p.TCPAck))
	n = f.And(n, f.Lit(e.tcpRst, p.TCPRst))
	n = f.And(n, e.icmpType.eqConst(uint64(p.ICMPType)))
	return n
}

// PacketFromAssignment reconstructs a concrete example packet from a
// partial assignment; don't-care fields read as zero.
func (e *PacketEncoding) PacketFromAssignment(a bdd.Assignment) ir.Packet {
	return ir.Packet{
		Src:      netaddr.Addr(e.src.valueOf(a)),
		Dst:      netaddr.Addr(e.dst.valueOf(a)),
		Protocol: uint8(e.proto.valueOf(a)),
		SrcPort:  uint16(e.srcPort.valueOf(a)),
		DstPort:  uint16(e.dstPort.valueOf(a)),
		TCPAck:   a[e.tcpAck] == 1,
		TCPRst:   a[e.tcpRst] == 1,
		ICMPType: uint8(e.icmpType.valueOf(a)),
	}
}

// DescribeExample renders the non-address constraints of an assignment as
// "field: value" strings plus a count of additional constrained variables,
// the "+N more" form of the paper's Table 7.
func (e *PacketEncoding) DescribeExample(a bdd.Assignment) (fields []string, more int) {
	constrained := func(v bitVec) bool {
		for _, i := range v.vars() {
			if a[i] != -1 {
				return true
			}
		}
		return false
	}
	if constrained(e.proto) {
		p := uint8(e.proto.valueOf(a))
		fields = append(fields, "protocol: "+ir.ProtoNumber(p).String())
	}
	if constrained(e.srcPort) {
		fields = append(fields, fmt.Sprintf("srcPort: %d", e.srcPort.valueOf(a)))
	}
	if constrained(e.dstPort) {
		fields = append(fields, fmt.Sprintf("dstPort: %d", e.dstPort.valueOf(a)))
	}
	if a[e.tcpAck] != -1 || a[e.tcpRst] != -1 {
		fields = append(fields, fmt.Sprintf("tcpEstablished: %v", a[e.tcpAck] == 1 || a[e.tcpRst] == 1))
	}
	if constrained(e.icmpType) {
		fields = append(fields, fmt.Sprintf("icmpType: %d", e.icmpType.valueOf(a)))
	}
	for i, v := range a {
		if v != -1 && i >= e.proto.first {
			more++
		}
	}
	more -= len(fields)
	if more < 0 {
		more = 0
	}
	return fields, more
}
