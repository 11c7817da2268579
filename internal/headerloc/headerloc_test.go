package headerloc

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cisco"
	"repro/internal/ir"
	"repro/internal/juniper"
	"repro/internal/netaddr"
	"repro/internal/semdiff"
	"repro/internal/symbolic"
)

const figure1a = `ip prefix-list NETS permit 10.9.0.0/16 le 32
ip prefix-list NETS permit 10.100.0.0/16 le 32
ip community-list standard COMM permit 10:10
ip community-list standard COMM permit 10:11
route-map POL deny 10
 match ip address NETS
route-map POL deny 20
 match community COMM
route-map POL permit 30
 set local-preference 30
`

const figure1b = `policy-options {
    prefix-list NETS {
        10.9.0.0/16;
        10.100.0.0/16;
    }
    community COMM members [ 10:10 10:11 ];
    policy-statement POL {
        term rule1 { from prefix-list NETS; then reject; }
        term rule2 { from community COMM; then reject; }
        term rule3 { then { local-preference 30; accept; } }
    }
}
`

// TestTable2Localization reproduces the header localization rows of the
// paper's Table 2 exactly.
func TestTable2Localization(t *testing.T) {
	c, err := cisco.Parse("cisco.cfg", figure1a)
	if err != nil {
		t.Fatal(err)
	}
	j, err := juniper.Parse("juniper.cfg", figure1b)
	if err != nil {
		t.Fatal(err)
	}
	enc := symbolic.NewRouteEncoding(c, j)
	diffs, err := semdiff.DiffRouteMaps(enc, c, c.RouteMaps["POL"], j, j.RouteMaps["POL"])
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != 2 {
		t.Fatalf("diffs = %d, want 2", len(diffs))
	}
	loc := NewRouteLocalizer(enc, c, j)

	// Table 2(a): Included 10.9.0.0/16:16-32 and 10.100.0.0/16:16-32,
	// each excluding its exact-length 16-16 range.
	l1 := loc.Localize(diffs[0].Inputs)
	if !l1.Exact {
		t.Error("difference 1 localization should be exact")
	}
	if len(l1.Terms) != 2 {
		t.Fatalf("difference 1 terms = %v", l1.Terms)
	}
	want1 := []struct{ inc, exc string }{
		{"10.9.0.0/16 : 16-32", "10.9.0.0/16 : 16-16"},
		{"10.100.0.0/16 : 16-32", "10.100.0.0/16 : 16-16"},
	}
	for i, w := range want1 {
		term := l1.Terms[i]
		if term.Include.String() != w.inc {
			t.Errorf("d1 term %d include = %s, want %s", i, term.Include, w.inc)
		}
		if len(term.Exclude) != 1 || term.Exclude[0].String() != w.exc {
			t.Errorf("d1 term %d exclude = %v, want %s", i, term.Exclude, w.exc)
		}
	}

	// Table 2(b): Included 0.0.0.0/0:0-32 excluding both NETS 16-32
	// ranges, with a single example community (10:10 or 10:11 alone).
	l2 := loc.Localize(diffs[1].Inputs)
	if !l2.Exact {
		t.Error("difference 2 localization should be exact")
	}
	if len(l2.Terms) != 1 {
		t.Fatalf("difference 2 terms = %v", l2.Terms)
	}
	term := l2.Terms[0]
	if term.Include.String() != "0.0.0.0/0 : 0-32" {
		t.Errorf("d2 include = %s", term.Include)
	}
	if len(term.Exclude) != 2 ||
		term.Exclude[0].String() != "10.9.0.0/16 : 16-32" ||
		term.Exclude[1].String() != "10.100.0.0/16 : 16-32" {
		t.Errorf("d2 exclude = %v", term.Exclude)
	}
	if len(l2.ExampleCommunities) != 1 ||
		(l2.ExampleCommunities[0] != "10:10" && l2.ExampleCommunities[0] != "10:11") {
		t.Errorf("d2 example communities = %v, want exactly one of 10:10/10:11", l2.ExampleCommunities)
	}
	if l2.ExampleRoute == nil {
		t.Error("d2 should carry an example route")
	}
}

func TestACLLocalizationTable7Shape(t *testing.T) {
	// A gateway ACL pair in the shape of Table 7: one router rejects
	// traffic from a source block that the other accepts.
	denyLine := ir.NewACLLine(ir.Deny)
	denyLine.Src = []netaddr.Wildcard{{Addr: netaddr.MustParseAddr("9.140.0.0"), Mask: netaddr.MustParseAddr("0.0.1.255")}}
	permitAll := ir.NewACLLine(ir.Permit)
	acl1 := &ir.ACL{Name: "VM_FILTER_1", Lines: []*ir.ACLLine{denyLine, permitAll}}

	permitAll2 := ir.NewACLLine(ir.Permit)
	acl2 := &ir.ACL{Name: "VM_FILTER_1", Lines: []*ir.ACLLine{permitAll2}}

	enc := symbolic.NewPacketEncoding()
	diffs := semdiff.DiffACLs(enc, acl1, acl2)
	if len(diffs) != 1 {
		t.Fatalf("diffs = %d, want 1", len(diffs))
	}
	loc := NewACLLocalizer(enc, acl1, acl2)
	l := loc.Localize(diffs[0].Inputs)
	if !l.SrcExact {
		t.Error("source localization should be exact")
	}
	if len(l.SrcTerms) != 1 || l.SrcTerms[0].Include.Prefix.String() != "9.140.0.0/23" {
		t.Errorf("src terms = %v, want 9.140.0.0/23", l.SrcTerms)
	}
	// Destination unconstrained: the whole space.
	if len(l.DstTerms) != 1 || !l.DstTerms[0].Include.Equal(netaddr.Universe) {
		t.Errorf("dst terms = %v, want universe", l.DstTerms)
	}
	if l.ExamplePacket.Src>>9 != netaddr.MustParseAddr("9.140.0.0")>>9 {
		t.Errorf("example packet src = %v", l.ExamplePacket.Src)
	}
}

func TestACLLocalizationPortDifference(t *testing.T) {
	// Difference depends on ports; addresses are shared. The example
	// fields should mention the constrained port space.
	l1 := ir.NewACLLine(ir.Permit)
	l1.Protocol = ir.ProtoNumber(ir.ProtoNumTCP)
	l1.Dst = []netaddr.Wildcard{netaddr.WildcardFromPrefix(netaddr.MustParsePrefix("10.0.0.0/8"))}
	l1.DstPorts = []netaddr.PortRange{{Lo: 80, Hi: 80}}
	acl1 := &ir.ACL{Name: "A", Lines: []*ir.ACLLine{l1}}

	l2 := ir.NewACLLine(ir.Permit)
	l2.Protocol = ir.ProtoNumber(ir.ProtoNumTCP)
	l2.Dst = []netaddr.Wildcard{netaddr.WildcardFromPrefix(netaddr.MustParsePrefix("10.0.0.0/8"))}
	l2.DstPorts = []netaddr.PortRange{{Lo: 80, Hi: 80}, {Lo: 443, Hi: 443}}
	acl2 := &ir.ACL{Name: "A", Lines: []*ir.ACLLine{l2}}

	enc := symbolic.NewPacketEncoding()
	diffs := semdiff.DiffACLs(enc, acl1, acl2)
	if len(diffs) != 1 {
		t.Fatalf("diffs = %d", len(diffs))
	}
	loc := NewACLLocalizer(enc, acl1, acl2)
	l := loc.Localize(diffs[0].Inputs)
	if len(l.DstTerms) != 1 || l.DstTerms[0].Include.Prefix.String() != "10.0.0.0/8" {
		t.Errorf("dst terms = %v", l.DstTerms)
	}
	if l.ExamplePacket.DstPort != 443 {
		t.Errorf("example packet port = %d, want 443", l.ExamplePacket.DstPort)
	}
	var sawPort bool
	for _, f := range l.ExampleFields {
		if f == "dstPort: 443" {
			sawPort = true
		}
	}
	if !sawPort {
		t.Errorf("example fields = %v, want dstPort: 443", l.ExampleFields)
	}
}

func TestConfigPrefixRanges(t *testing.T) {
	cfg := ir.NewConfig("r", ir.VendorCisco)
	cfg.PrefixLists["A"] = &ir.PrefixList{Name: "A", Entries: []ir.PrefixListEntry{
		{Action: ir.Permit, Range: netaddr.MustParsePrefixRange("10.0.0.0/8 : 8-32")},
	}}
	cfg.RouteMaps["P"] = &ir.RouteMap{Name: "P", Clauses: []*ir.RouteMapClause{
		{Action: ir.ClausePermit, Matches: []ir.Match{ir.MatchPrefixRanges{
			Ranges: []netaddr.PrefixRange{netaddr.MustParsePrefixRange("192.0.2.0/24 : 24-24")},
		}}},
	}}
	got := ConfigPrefixRanges(cfg)
	if len(got) != 2 {
		t.Errorf("ranges = %v", got)
	}
}

// TestLocalizeCommunities exercises the §4 extension: for Figure 1's
// Difference 2 the impacted community space is "exactly one of 10:10,
// 10:11", rendered as two exhaustive terms.
func TestLocalizeCommunities(t *testing.T) {
	c, err := cisco.Parse("cisco.cfg", figure1a)
	if err != nil {
		t.Fatal(err)
	}
	j, err := juniper.Parse("juniper.cfg", figure1b)
	if err != nil {
		t.Fatal(err)
	}
	enc := symbolic.NewRouteEncoding(c, j)
	diffs, err := semdiff.DiffRouteMaps(enc, c, c.RouteMaps["POL"], j, j.RouteMaps["POL"])
	if err != nil {
		t.Fatal(err)
	}
	loc := NewRouteLocalizer(enc, c, j)

	// Difference 2 (community-driven): exactly one of the two tags.
	terms, complete := loc.LocalizeCommunities(diffs[1].Inputs, 100)
	if !complete {
		t.Fatal("should be complete")
	}
	if len(terms) != 2 {
		t.Fatalf("terms = %+v, want 2 (one-of-two)", terms)
	}
	want := map[string]bool{"+10:11 −10:10": false, "+10:10 −10:11": false}
	for _, term := range terms {
		key := ""
		for _, p := range term.Present {
			key += "+" + p
		}
		for _, a := range term.Absent {
			if key != "" {
				key += " "
			}
			key += "−" + a
		}
		if _, ok := want[key]; !ok {
			t.Errorf("unexpected term %q", key)
		}
		want[key] = true
	}
	for k, seen := range want {
		if !seen {
			t.Errorf("missing term %q", k)
		}
	}

	// Difference 1 (prefix-driven): the community dimension is
	// constrained only by "not both" (clause 20 shadowing is handled by
	// the prefix part); check the terms cover everything except both.
	terms1, complete1 := loc.LocalizeCommunities(diffs[0].Inputs, 100)
	if !complete1 || len(terms1) == 0 {
		t.Fatalf("terms1 = %+v", terms1)
	}
	// Truncation is reported.
	_, complete2 := loc.LocalizeCommunities(diffs[1].Inputs, 1)
	if complete2 {
		t.Error("limit 1 must report incompleteness")
	}
	// Stringer sanity.
	if (CommunityTerm{}).String() != "(any)" {
		t.Error("empty term renders (any)")
	}
	if got := (CommunityTerm{Present: []string{"a"}, Absent: []string{"b"}}).String(); got != "+a −b" {
		t.Errorf("String = %q", got)
	}
}

// TestCommunityTermAppendTo: for any atoms, String joins "+present" and
// "−absent" with spaces ("(any)" for none), and AppendTo appends the same
// text after what its buffer held.
func TestCommunityTermAppendTo(t *testing.T) {
	f := func(present, absent []string, head string) bool {
		ct := CommunityTerm{Present: present, Absent: absent}
		var parts []string
		for _, p := range present {
			parts = append(parts, "+"+p)
		}
		for _, a := range absent {
			parts = append(parts, "−"+a)
		}
		want := strings.Join(parts, " ")
		if len(parts) == 0 {
			want = "(any)"
		}
		return ct.String() == want && string(ct.AppendTo([]byte(head))) == head+want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPrefixListFilterLocalization(t *testing.T) {
	// A prefix-list-filter orlonger vs an exact prefix-list: the widened
	// range must appear in the localization vocabulary so the difference
	// renders exactly.
	jText := `policy-options {
    prefix-list NETS {
        10.9.0.0/16;
    }
    policy-statement P {
        term t1 {
            from { prefix-list-filter NETS orlonger; }
            then reject;
        }
        term t2 { then accept; }
    }
}
`
	cText := `route-map P deny 10
 match ip address NETS
route-map P permit 20
ip prefix-list NETS permit 10.9.0.0/16
`
	j, err := juniper.Parse("j.cfg", jText)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cisco.Parse("c.cfg", cText)
	if err != nil {
		t.Fatal(err)
	}
	enc := symbolic.NewRouteEncoding(c, j)
	diffs, err := semdiff.DiffRouteMaps(enc, c, c.RouteMaps["P"], j, j.RouteMaps["P"])
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != 1 {
		t.Fatalf("diffs = %d, want 1 (the 17-32 refinements)", len(diffs))
	}
	loc := NewRouteLocalizer(enc, c, j)
	l := loc.Localize(diffs[0].Inputs)
	if !l.Exact {
		t.Errorf("localization should be exact with the widened range in vocabulary: %v", l.Terms)
	}
	if len(l.Terms) != 1 ||
		l.Terms[0].Include.String() != "10.9.0.0/16 : 16-32" ||
		len(l.Terms[0].Exclude) != 1 ||
		l.Terms[0].Exclude[0].String() != "10.9.0.0/16 : 16-16" {
		t.Errorf("terms = %v", l.Terms)
	}
}
