package ir

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/netaddr"
)

func TestTextSpan(t *testing.T) {
	s := TextSpan{File: "r.cfg", StartLine: 3, EndLine: 5, Lines: []string{"a", "b", "c"}}
	if s.Text() != "a\nb\nc" {
		t.Errorf("Text = %q", s.Text())
	}
	if s.Location() != "r.cfg:3-5" {
		t.Errorf("Location = %q", s.Location())
	}
	one := TextSpan{File: "r.cfg", StartLine: 7, EndLine: 7, Lines: []string{"x"}}
	if one.Location() != "r.cfg:7" {
		t.Errorf("Location = %q", one.Location())
	}
	var zero TextSpan
	if !zero.IsZero() || zero.Location() != "" {
		t.Error("zero span")
	}
	m := s.Merge(one)
	if m.StartLine != 3 || m.EndLine != 7 || len(m.Lines) != 4 {
		t.Errorf("Merge = %+v", m)
	}
	if !zero.Merge(zero).IsZero() {
		t.Error("merge of zeros should be zero")
	}
	if s.Merge(zero).StartLine != 3 {
		t.Error("merge with zero should be identity")
	}
}

// locationRef is the fmt reference Location must match byte for byte.
func locationRef(s TextSpan) string {
	if s.File == "" && s.StartLine == 0 {
		return ""
	}
	if s.StartLine == s.EndLine {
		return fmt.Sprintf("%s:%d", s.File, s.StartLine)
	}
	return fmt.Sprintf("%s:%d-%d", s.File, s.StartLine, s.EndLine)
}

func TestLocationMatchesSprintf(t *testing.T) {
	for _, s := range []TextSpan{
		{},
		{EndLine: 4},
		{File: "r.cfg", StartLine: 7, EndLine: 7},
		{File: "r.cfg", StartLine: 3, EndLine: 5},
		{StartLine: 12, EndLine: 12},
		{StartLine: 12, EndLine: 15},
		{File: "r\xff.cfg", StartLine: -1, EndLine: 0},
		{File: "/a/long/directory/path/to/the/configuration/of/router-0001.cfg", StartLine: 1 << 40, EndLine: -1 << 40},
	} {
		if got, want := s.Location(), locationRef(s); got != want {
			t.Errorf("%+v: Location = %q, want %q", s, got, want)
		}
	}
	f := func(file string, start, end int, oneLine, noFile bool) bool {
		if oneLine {
			end = start
		}
		if noFile {
			file = ""
		}
		s := TextSpan{File: file, StartLine: start, EndLine: end}
		return s.Location() == locationRef(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPrefixListMatches(t *testing.T) {
	pl := &PrefixList{
		Name: "NETS",
		Entries: []PrefixListEntry{
			{Action: Permit, Range: netaddr.MustParsePrefixRange("10.9.0.0/16 : 16-32")},
			{Action: Deny, Range: netaddr.MustParsePrefixRange("10.0.0.0/8 : 8-32")},
			{Action: Permit, Range: netaddr.MustParsePrefixRange("0.0.0.0/0 : 0-32")},
		},
	}
	if a, ok := pl.Matches(netaddr.MustParsePrefix("10.9.1.0/24")); !ok || a != Permit {
		t.Error("first entry should permit 10.9.1.0/24")
	}
	if a, ok := pl.Matches(netaddr.MustParsePrefix("10.8.0.0/16")); !ok || a != Deny {
		t.Error("second entry should deny 10.8.0.0/16")
	}
	if a, ok := pl.Matches(netaddr.MustParsePrefix("192.0.2.0/24")); !ok || a != Permit {
		t.Error("third entry should permit 192.0.2.0/24")
	}
	empty := &PrefixList{Name: "E"}
	if _, ok := empty.Matches(netaddr.MustParsePrefix("10.0.0.0/8")); ok {
		t.Error("empty list matches nothing")
	}
}

func TestACLEvaluate(t *testing.T) {
	tcp := NewACLLine(Permit)
	tcp.Protocol = ProtoNumber(ProtoNumTCP)
	tcp.Dst = []netaddr.Wildcard{netaddr.WildcardFromPrefix(netaddr.MustParsePrefix("10.0.0.0/8"))}
	tcp.DstPorts = []netaddr.PortRange{{Lo: 80, Hi: 80}, {Lo: 443, Hi: 443}}

	icmp := NewACLLine(Deny)
	icmp.Protocol = ProtoNumber(ProtoNumICMP)
	icmp.ICMPType = 8

	anyAllow := NewACLLine(Permit)
	anyAllow.Src = []netaddr.Wildcard{netaddr.WildcardFromPrefix(netaddr.MustParsePrefix("192.0.2.0/24"))}

	acl := &ACL{Name: "T", Lines: []*ACLLine{tcp, icmp, anyAllow}}

	web := Packet{Src: netaddr.MustParseAddr("1.1.1.1"), Dst: netaddr.MustParseAddr("10.2.3.4"), Protocol: ProtoNumTCP, DstPort: 443}
	if a, l := acl.Evaluate(web); a != Permit || l != tcp {
		t.Error("web packet should hit the tcp line")
	}
	sshOut := web
	sshOut.DstPort = 22
	if a, _ := acl.Evaluate(sshOut); a != Deny {
		t.Error("port 22 to 10/8 should fall to implicit deny")
	}
	ping := Packet{Src: netaddr.MustParseAddr("192.0.2.9"), Dst: netaddr.MustParseAddr("8.8.8.8"), Protocol: ProtoNumICMP, ICMPType: 8}
	if a, l := acl.Evaluate(ping); a != Deny || l != icmp {
		t.Error("echo request should hit the icmp deny before the src permit")
	}
	pong := ping
	pong.ICMPType = 0
	if a, l := acl.Evaluate(pong); a != Permit || l != anyAllow {
		t.Error("echo reply from 192.0.2/24 should hit the src permit")
	}
}

func TestACLEstablished(t *testing.T) {
	est := NewACLLine(Permit)
	est.Protocol = ProtoNumber(ProtoNumTCP)
	est.Established = true
	acl := &ACL{Name: "E", Lines: []*ACLLine{est}}

	syn := Packet{Protocol: ProtoNumTCP}
	if a, _ := acl.Evaluate(syn); a != Permit {
		// SYN has neither ACK nor RST: must not match established.
		t.Log("ok: syn denied")
	} else {
		t.Error("plain SYN should not match established")
	}
	ack := Packet{Protocol: ProtoNumTCP, TCPAck: true}
	if a, _ := acl.Evaluate(ack); a != Permit {
		t.Error("ACK should match established")
	}
	rst := Packet{Protocol: ProtoNumTCP, TCPRst: true}
	if a, _ := acl.Evaluate(rst); a != Permit {
		t.Error("RST should match established")
	}
	udp := Packet{Protocol: ProtoNumUDP, TCPAck: true}
	if a, _ := acl.Evaluate(udp); a == Permit {
		t.Error("UDP can never match established")
	}
}

func TestProtocolByName(t *testing.T) {
	for name, num := range map[string]uint8{
		"icmp": ProtoNumICMP, "tcp": ProtoNumTCP, "udp": ProtoNumUDP,
		"gre": ProtoNumGRE, "esp": ProtoNumESP, "ospf": ProtoNumOSPF,
	} {
		m, ok := ProtocolByName(name)
		if !ok || m.Any || m.Number != num {
			t.Errorf("ProtocolByName(%q) = %+v ok=%v", name, m, ok)
		}
	}
	m, ok := ProtocolByName("ip")
	if !ok || !m.Any {
		t.Error("ip should be any-protocol")
	}
	if _, ok := ProtocolByName("bogus"); ok {
		t.Error("bogus protocol should not resolve")
	}
}

// figure1Cisco builds the IR of Figure 1(a): prefix list with le 32,
// community list with OR semantics, three-clause route map, implicit deny.
func figure1Cisco() *Config {
	c := NewConfig("cisco_router", VendorCisco)
	c.PrefixLists["NETS"] = &PrefixList{
		Name: "NETS",
		Entries: []PrefixListEntry{
			{Action: Permit, Range: netaddr.MustParsePrefixRange("10.9.0.0/16 : 16-32")},
			{Action: Permit, Range: netaddr.MustParsePrefixRange("10.100.0.0/16 : 16-32")},
		},
	}
	c.CommunityLists["COMM"] = &CommunityList{
		Name: "COMM",
		Entries: []CommunityListEntry{
			{Action: Permit, Conjuncts: []CommunityMatcher{{Literal: "10:10"}}},
			{Action: Permit, Conjuncts: []CommunityMatcher{{Literal: "10:11"}}},
		},
	}
	c.RouteMaps["POL"] = &RouteMap{
		Name:          "POL",
		DefaultAction: Deny,
		Clauses: []*RouteMapClause{
			{Seq: 10, Action: ClauseDeny, Matches: []Match{MatchPrefixList{Lists: []string{"NETS"}}}},
			{Seq: 20, Action: ClauseDeny, Matches: []Match{MatchCommunity{Lists: []string{"COMM"}}}},
			{Seq: 30, Action: ClausePermit, Sets: []SetAction{SetLocalPref{Value: 30}}},
		},
	}
	return c
}

// figure1Juniper builds the IR of Figure 1(b): exact-length prefix list,
// community with AND semantics, and accept fall-through via rule3.
func figure1Juniper() *Config {
	c := NewConfig("juniper_router", VendorJuniper)
	c.PrefixLists["NETS"] = &PrefixList{
		Name: "NETS",
		Entries: []PrefixListEntry{
			{Action: Permit, Range: netaddr.MustParsePrefixRange("10.9.0.0/16 : 16-16")},
			{Action: Permit, Range: netaddr.MustParsePrefixRange("10.100.0.0/16 : 16-16")},
		},
	}
	c.CommunityLists["COMM"] = &CommunityList{
		Name: "COMM",
		Entries: []CommunityListEntry{
			{Action: Permit, Conjuncts: []CommunityMatcher{{Literal: "10:10"}, {Literal: "10:11"}}},
		},
	}
	c.RouteMaps["POL"] = &RouteMap{
		Name:          "POL",
		DefaultAction: Deny,
		Clauses: []*RouteMapClause{
			{Seq: 1, Name: "rule1", Action: ClauseDeny, Matches: []Match{MatchPrefixList{Lists: []string{"NETS"}}}},
			{Seq: 2, Name: "rule2", Action: ClauseDeny, Matches: []Match{MatchCommunity{Lists: []string{"COMM"}}}},
			{Seq: 3, Name: "rule3", Action: ClausePermit, Sets: []SetAction{SetLocalPref{Value: 30}}},
		},
	}
	return c
}

func TestFigure1ConcreteSemantics(t *testing.T) {
	cisco, juniper := figure1Cisco(), figure1Juniper()
	cpol, jpol := cisco.RouteMaps["POL"], juniper.RouteMaps["POL"]

	// Difference 1: a /24 inside 10.9/16. Cisco rejects (NETS le 32
	// matches), Juniper accepts via rule3 (NETS matches /16 only).
	r := NewRoute(netaddr.MustParsePrefix("10.9.1.0/24"))
	if res := cisco.EvalRouteMap(cpol, r); res.Action != Deny {
		t.Error("cisco should reject 10.9.1.0/24")
	}
	if res := juniper.EvalRouteMap(jpol, r); res.Action != Permit || res.Route.LocalPref != 30 {
		t.Error("juniper should accept 10.9.1.0/24 with local-pref 30")
	}
	// The exact /16 is rejected by both.
	r16 := NewRoute(netaddr.MustParsePrefix("10.9.0.0/16"))
	if res := cisco.EvalRouteMap(cpol, r16); res.Action != Deny {
		t.Error("cisco should reject the /16")
	}
	if res := juniper.EvalRouteMap(jpol, r16); res.Action != Deny {
		t.Error("juniper should reject the /16")
	}

	// Difference 2: a route tagged with only 10:10. Cisco's OR community
	// list rejects; Juniper's AND community accepts via rule3.
	r2 := NewRoute(netaddr.MustParsePrefix("192.0.2.0/24"))
	r2.Communities["10:10"] = true
	if res := cisco.EvalRouteMap(cpol, r2); res.Action != Deny {
		t.Error("cisco should reject a route with community 10:10")
	}
	if res := juniper.EvalRouteMap(jpol, r2); res.Action != Permit {
		t.Error("juniper should accept a route with only community 10:10")
	}
	// Both communities present: both reject.
	r3 := NewRoute(netaddr.MustParsePrefix("192.0.2.0/24"))
	r3.Communities["10:10"] = true
	r3.Communities["10:11"] = true
	if res := cisco.EvalRouteMap(cpol, r3); res.Action != Deny {
		t.Error("cisco should reject both-communities route")
	}
	if res := juniper.EvalRouteMap(jpol, r3); res.Action != Deny {
		t.Error("juniper should reject both-communities route")
	}
	// No communities, prefix outside NETS: both accept with lp 30.
	r4 := NewRoute(netaddr.MustParsePrefix("192.0.2.0/24"))
	cres, jres := cisco.EvalRouteMap(cpol, r4), juniper.EvalRouteMap(jpol, r4)
	if cres.Action != Permit || jres.Action != Permit {
		t.Error("clean route should be accepted by both")
	}
	if cres.Route.LocalPref != 30 || jres.Route.LocalPref != 30 {
		t.Error("both should set local-pref 30")
	}
}

func TestFallthroughClause(t *testing.T) {
	c := NewConfig("r", VendorJuniper)
	c.RouteMaps["P"] = &RouteMap{
		Name:          "P",
		DefaultAction: Deny,
		Clauses: []*RouteMapClause{
			{Action: ClauseFallthrough, Sets: []SetAction{SetCommunities{Communities: []string{"1:1"}, Additive: true}}},
			{Action: ClausePermit, Sets: []SetAction{SetLocalPref{Value: 200}}},
		},
	}
	r := NewRoute(netaddr.MustParsePrefix("10.0.0.0/8"))
	res := c.EvalRouteMap(c.RouteMaps["P"], r)
	if res.Action != Permit {
		t.Fatal("route should be accepted")
	}
	if !res.Route.Communities["1:1"] || res.Route.LocalPref != 200 {
		t.Error("fall-through sets should accumulate before the terminal clause")
	}
}

func TestDefaultActionPermit(t *testing.T) {
	c := NewConfig("r", VendorJuniper)
	rm := &RouteMap{Name: "P", DefaultAction: Permit}
	r := NewRoute(netaddr.MustParsePrefix("10.0.0.0/8"))
	res := c.EvalRouteMap(rm, r)
	if res.Action != Permit || res.Clause != nil {
		t.Error("empty map with default permit should accept via default")
	}
}

func TestSetActions(t *testing.T) {
	c := NewConfig("r", VendorCisco)
	rm := &RouteMap{
		Name:          "S",
		DefaultAction: Deny,
		Clauses: []*RouteMapClause{{
			Action: ClausePermit,
			Sets: []SetAction{
				SetMED{Value: 50},
				SetWeight{Value: 10},
				SetTag{Value: 77},
				SetNextHop{Addr: netaddr.MustParseAddr("10.0.0.1")},
				SetCommunities{Communities: []string{"2:2"}}, // replace
				SetASPathPrepend{ASNs: []int64{65000, 65000}},
			},
		}},
	}
	r := NewRoute(netaddr.MustParsePrefix("10.0.0.0/8"))
	r.Communities["9:9"] = true
	r.ASPath = []int64{1}
	res := c.EvalRouteMap(rm, r)
	if res.Action != Permit {
		t.Fatal("should permit")
	}
	out := res.Route
	if out.MED != 50 || out.Weight != 10 || out.Tag != 77 {
		t.Error("numeric sets")
	}
	if out.NextHop != netaddr.MustParseAddr("10.0.0.1") {
		t.Error("next hop set")
	}
	if out.Communities["9:9"] || !out.Communities["2:2"] {
		t.Error("non-additive community set should replace")
	}
	if len(out.ASPath) != 3 || out.ASPath[0] != 65000 || out.ASPath[2] != 1 {
		t.Errorf("prepend: %v", out.ASPath)
	}
	// Input route must be unchanged.
	if r.MED != 0 || r.Communities["2:2"] {
		t.Error("evaluation must not mutate the input route")
	}
}

func TestDeleteCommunity(t *testing.T) {
	c := NewConfig("r", VendorCisco)
	c.CommunityLists["DEL"] = &CommunityList{
		Name: "DEL",
		Entries: []CommunityListEntry{
			{Action: Permit, Conjuncts: []CommunityMatcher{{Regex: "^10:.*$"}}},
		},
	}
	rm := &RouteMap{
		Name:          "D",
		DefaultAction: Deny,
		Clauses: []*RouteMapClause{{
			Action: ClausePermit,
			Sets:   []SetAction{DeleteCommunity{List: "DEL"}},
		}},
	}
	r := NewRoute(netaddr.MustParsePrefix("10.0.0.0/8"))
	r.Communities["10:5"] = true
	r.Communities["20:5"] = true
	res := c.EvalRouteMap(rm, r)
	if res.Route.Communities["10:5"] {
		t.Error("10:5 should be deleted")
	}
	if !res.Route.Communities["20:5"] {
		t.Error("20:5 should survive")
	}
}

func TestMatchVariants(t *testing.T) {
	c := NewConfig("r", VendorCisco)
	c.PrefixLists["NH"] = &PrefixList{
		Name:    "NH",
		Entries: []PrefixListEntry{{Action: Permit, Range: netaddr.ExactRange(netaddr.MustParsePrefix("10.0.0.1/32"))}},
	}
	r := NewRoute(netaddr.MustParsePrefix("192.0.2.0/24"))
	r.MED = 5
	r.Tag = 7
	r.NextHop = netaddr.MustParseAddr("10.0.0.1")
	r.Protocol = ProtoOSPF

	if !c.matchHolds(MatchMED{Value: 5}, r) || c.matchHolds(MatchMED{Value: 6}, r) {
		t.Error("MED match")
	}
	if !c.matchHolds(MatchTag{Value: 7}, r) || c.matchHolds(MatchTag{Value: 8}, r) {
		t.Error("tag match")
	}
	if !c.matchHolds(MatchProtocol{Protocols: []Protocol{ProtoOSPF, ProtoStatic}}, r) {
		t.Error("protocol match")
	}
	if c.matchHolds(MatchProtocol{Protocols: []Protocol{ProtoStatic}}, r) {
		t.Error("protocol mismatch")
	}
	if !c.matchHolds(MatchNextHop{Lists: []string{"NH"}}, r) {
		t.Error("next-hop match")
	}
	if !c.matchHolds(MatchPrefixRanges{Ranges: []netaddr.PrefixRange{netaddr.MustParsePrefixRange("192.0.2.0/24 : 24-24")}}, r) {
		t.Error("inline range match")
	}
	// Unknown list names match nothing.
	if c.matchHolds(MatchPrefixList{Lists: []string{"NOPE"}}, r) {
		t.Error("unknown prefix list should not match")
	}
	if c.matchHolds(MatchCommunity{Lists: []string{"NOPE"}}, r) {
		t.Error("unknown community list should not match")
	}
	if c.matchHolds(MatchASPath{Lists: []string{"NOPE"}}, r) {
		t.Error("unknown as-path list should not match")
	}
}

func TestASPathMatch(t *testing.T) {
	c := NewConfig("r", VendorCisco)
	c.ASPathLists["AP"] = &ASPathList{
		Name:    "AP",
		Entries: []ASPathListEntry{{Action: Permit, Regex: "_65000_"}},
	}
	r := NewRoute(netaddr.MustParsePrefix("10.0.0.0/8"))
	r.ASPath = []int64{65000, 65001}
	if !c.matchHolds(MatchASPath{Lists: []string{"AP"}}, r) {
		t.Error("as-path 65000 65001 should match _65000_")
	}
	r.ASPath = []int64{165000}
	if c.matchHolds(MatchASPath{Lists: []string{"AP"}}, r) {
		t.Error("165000 should not match _65000_")
	}
}

func TestRouteEqualClone(t *testing.T) {
	r := NewRoute(netaddr.MustParsePrefix("10.0.0.0/8"))
	r.Communities["10:10"] = true
	r.ASPath = []int64{1, 2}
	s := r.Clone()
	if !r.Equal(s) {
		t.Error("clone should be equal")
	}
	s.Communities["10:11"] = true
	if r.Equal(s) {
		t.Error("community change should break equality")
	}
	if r.Communities["10:11"] {
		t.Error("clone must not share the community map")
	}
	s2 := r.Clone()
	s2.ASPath[0] = 9
	if r.ASPath[0] == 9 {
		t.Error("clone must not share the as-path slice")
	}
	if !r.Equal(r) {
		t.Error("reflexive equality")
	}
	var nilr *Route
	if nilr.Equal(r) || r.Equal(nilr) {
		t.Error("nil inequality")
	}
	if !nilr.Equal(nilr) {
		t.Error("nil == nil")
	}
}

func TestEvalPolicyChain(t *testing.T) {
	c := figure1Cisco()
	r := NewRoute(netaddr.MustParsePrefix("10.9.1.0/24"))
	res := c.EvalPolicyChain([]string{"POL"}, r, Permit)
	if res.Action != Deny {
		t.Error("chain should apply POL")
	}
	res = c.EvalPolicyChain(nil, r, Permit)
	if res.Action != Permit {
		t.Error("empty chain should use the default")
	}
	res = c.EvalPolicyChain([]string{"MISSING"}, r, Deny)
	if res.Action != Deny {
		t.Error("missing map should fall to the default")
	}
}

func TestStringers(t *testing.T) {
	if VendorCisco.String() != "cisco" || VendorJuniper.String() != "juniper" || VendorUnknown.String() != "unknown" {
		t.Error("vendor strings")
	}
	if Permit.String() != "permit" || Deny.String() != "deny" {
		t.Error("action strings")
	}
	if ProtoBGP.String() != "bgp" || ProtoConnected.String() != "connected" {
		t.Error("protocol strings")
	}
	if ClausePermit.String() != "permit" || ClauseFallthrough.String() != "fallthrough" {
		t.Error("clause action strings")
	}
	sr := &StaticRoute{Prefix: netaddr.MustParsePrefix("10.1.1.2/31"), NextHop: netaddr.MustParseAddr("10.2.2.2"), HasNextHop: true, AdminDistance: 1}
	if sr.String() != "10.1.1.2/31 via 10.2.2.2 (ad 1)" {
		t.Errorf("static route string = %q", sr.String())
	}
	r := NewRoute(netaddr.MustParsePrefix("10.0.0.0/8"))
	r.Communities["10:10"] = true
	r.ASPath = []int64{65000}
	if got := r.String(); got == "" {
		t.Error("route string empty")
	}
}

func TestBGPOSPFHelpers(t *testing.T) {
	b := NewBGPConfig(65000)
	b.Neighbors["10.0.0.2"] = &BGPNeighbor{Addr: netaddr.MustParseAddr("10.0.0.2"), RemoteAS: 65000}
	b.Neighbors["10.0.0.1"] = &BGPNeighbor{Addr: netaddr.MustParseAddr("10.0.0.1"), RemoteAS: 65001}
	addrs := b.NeighborAddrs()
	if len(addrs) != 2 || addrs[0] != "10.0.0.1" {
		t.Errorf("NeighborAddrs = %v", addrs)
	}
	if !b.Neighbors["10.0.0.2"].IsIBGP(65000) || b.Neighbors["10.0.0.1"].IsIBGP(65000) {
		t.Error("IsIBGP")
	}
	o := NewOSPFConfig(1)
	o.Interfaces["ge-0/0/1"] = &OSPFInterface{Name: "ge-0/0/1"}
	o.Interfaces["ae0"] = &OSPFInterface{Name: "ae0"}
	names := o.InterfaceNames()
	if len(names) != 2 || names[0] != "ae0" {
		t.Errorf("InterfaceNames = %v", names)
	}
	cd := DefaultAdminDistances(VendorCisco)
	jd := DefaultAdminDistances(VendorJuniper)
	if cd[ProtoStatic] != 1 || jd[ProtoStatic] != 5 {
		t.Error("default admin distances")
	}
}

func TestMatchAndSetStringers(t *testing.T) {
	matches := []Match{
		MatchPrefixList{Lists: []string{"A", "B"}},
		MatchPrefixListFilter{List: "A", Modifier: "orlonger"},
		MatchPrefixRanges{Ranges: []netaddr.PrefixRange{netaddr.MustParsePrefixRange("10.0.0.0/8 : 8-32")}},
		MatchCommunity{Lists: []string{"C"}},
		MatchASPath{Lists: []string{"P"}},
		MatchMED{Value: 5},
		MatchTag{Value: 7},
		MatchProtocol{Protocols: []Protocol{ProtoBGP, ProtoStatic}},
		MatchNextHop{Lists: []string{"NH"}},
	}
	wantMatch := []string{
		"prefix-list A B",
		"prefix-list-filter A orlonger",
		"route-filter 10.0.0.0/8 : 8-32",
		"community C",
		"as-path P",
		"metric 5",
		"tag 7",
		"protocol bgp static",
		"next-hop NH",
	}
	for i, m := range matches {
		if m.String() != wantMatch[i] {
			t.Errorf("match %d String = %q, want %q", i, m.String(), wantMatch[i])
		}
	}
	sets := []SetAction{
		SetLocalPref{Value: 100},
		SetMED{Value: 5},
		SetCommunities{Communities: []string{"1:1"}, Additive: true},
		SetCommunities{Communities: []string{"1:1"}},
		DeleteCommunity{List: "DEL"},
		SetNextHop{Addr: netaddr.MustParseAddr("10.0.0.1")},
		SetWeight{Value: 10},
		SetTag{Value: 9},
		SetASPathPrepend{ASNs: []int64{65000, 65000}},
	}
	wantSet := []string{
		"local-preference 100",
		"metric 5",
		"community 1:1 additive",
		"community 1:1",
		"comm-list DEL delete",
		"next-hop 10.0.0.1",
		"weight 10",
		"tag 9",
		"as-path prepend 65000 65000",
	}
	for i, s := range sets {
		if s.String() != wantSet[i] {
			t.Errorf("set %d String = %q, want %q", i, s.String(), wantSet[i])
		}
	}
}

func TestProtocolMatchString(t *testing.T) {
	cases := map[string]ProtocolMatch{
		"ip":   AnyProtocol,
		"icmp": ProtoNumber(ProtoNumICMP),
		"tcp":  ProtoNumber(ProtoNumTCP),
		"udp":  ProtoNumber(ProtoNumUDP),
		"gre":  ProtoNumber(ProtoNumGRE),
		"esp":  ProtoNumber(ProtoNumESP),
		"ah":   ProtoNumber(ProtoNumAH),
		"ospf": ProtoNumber(ProtoNumOSPF),
		"99":   ProtoNumber(99),
	}
	for want, m := range cases {
		if m.String() != want {
			t.Errorf("String = %q, want %q", m.String(), want)
		}
	}
}

func TestPortByName(t *testing.T) {
	cases := []struct {
		in   string
		want uint16
		ok   bool
	}{
		{"80", 80, true},
		{"0", 0, true},
		{"65535", 65535, true},
		{"65536", 0, false},
		{"ssh", 22, true},
		{"BGP", 179, true},
		{"bogus", 0, false},
		{"", 0, false},
		{"-1", 0, false},
	}
	for _, c := range cases {
		got, ok := PortByName(c.in)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("PortByName(%q) = %d,%v want %d,%v", c.in, got, ok, c.want, c.ok)
		}
	}
}

func TestApplyRangeModifier(t *testing.T) {
	base := netaddr.MustParsePrefixRange("10.9.0.0/16 : 16-16")
	if got := ApplyRangeModifier(base, "exact"); !got.Equal(base) {
		t.Errorf("exact = %v", got)
	}
	if got := ApplyRangeModifier(base, ""); !got.Equal(base) {
		t.Errorf("no modifier = %v", got)
	}
	or := ApplyRangeModifier(base, "orlonger")
	if or.String() != "10.9.0.0/16 : 16-32" {
		t.Errorf("orlonger = %v", or)
	}
	lg := ApplyRangeModifier(base, "longer")
	if lg.String() != "10.9.0.0/16 : 17-32" {
		t.Errorf("longer = %v", lg)
	}
	host := netaddr.MustParsePrefixRange("10.9.0.1/32 : 32-32")
	if !ApplyRangeModifier(host, "longer").IsEmpty() {
		t.Error("longer on a /32 is empty")
	}
}

func TestRegexCommunityOnRoute(t *testing.T) {
	r := NewRoute(netaddr.MustParsePrefix("10.0.0.0/8"))
	r.Communities["65000:1"] = true
	if !routeHasCommunityMatching(r, CommunityMatcher{Regex: "^65000:.*$"}) {
		t.Error("regex should match route community")
	}
	if routeHasCommunityMatching(r, CommunityMatcher{Regex: "^65001:.*$"}) {
		t.Error("non-matching regex")
	}
	if routeHasCommunityMatching(r, CommunityMatcher{Regex: "[invalid"}) {
		t.Error("invalid regex matches nothing")
	}
}
