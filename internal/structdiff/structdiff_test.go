package structdiff

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cisco"
	"repro/internal/ir"
	"repro/internal/juniper"
	"repro/internal/netaddr"
)

// staticKeyRef is the fmt reference staticKey must match byte for byte.
func staticKeyRef(r *ir.StaticRoute) string {
	nh := r.Interface
	if r.HasNextHop {
		nh = r.NextHop.String()
	}
	s := fmt.Sprintf("next-hop %s, admin-distance %d", nh, r.AdminDistance)
	if r.HasTag {
		s += fmt.Sprintf(", tag %d", r.Tag)
	}
	return s
}

func TestStaticKeyMatchesSprintf(t *testing.T) {
	for _, r := range []ir.StaticRoute{
		{},
		{NextHop: netaddr.MustParseAddr("10.0.0.254"), HasNextHop: true, AdminDistance: 1},
		{Interface: "Null0", AdminDistance: 250, Tag: -1, HasTag: true},
		{Interface: "GigabitEthernet0/0/0.100", AdminDistance: -5, Tag: -1 << 63, HasTag: true},
		{NextHop: netaddr.MustParseAddr("255.255.255.255"), HasNextHop: true, Interface: "ignored", Tag: 1<<63 - 1, HasTag: true},
		{Interface: "Tunnel\xff", Tag: 42},
	} {
		if got, want := staticKey(&r), staticKeyRef(&r); got != want {
			t.Errorf("%+v: staticKey = %q, want %q", r, got, want)
		}
	}
	f := func(nh uint32, hasNH bool, iface string, ad int, tag int64, hasTag bool) bool {
		r := ir.StaticRoute{NextHop: netaddr.Addr(nh), HasNextHop: hasNH, Interface: iface,
			AdminDistance: ad, Tag: tag, HasTag: hasTag}
		return staticKey(&r) == staticKeyRef(&r)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestTable4StaticRoute reproduces the paper's Table 4: a static route
// present in the Cisco router but absent from the Juniper one, localized
// to the exact configuration line.
func TestTable4StaticRoute(t *testing.T) {
	c, err := cisco.Parse("cisco.cfg", "ip route 10.1.1.2 255.255.255.254 10.2.2.2\n")
	if err != nil {
		t.Fatal(err)
	}
	j, err := juniper.Parse("juniper.cfg", "routing-options { static { } }\n")
	if err != nil {
		t.Fatal(err)
	}
	diffs := DiffStaticRoutes(c, j)
	if len(diffs) != 1 {
		t.Fatalf("diffs = %+v, want 1", diffs)
	}
	d := diffs[0]
	if d.Key != "10.1.1.2/31" || d.Field != "presence" {
		t.Errorf("d = %+v", d)
	}
	if !strings.Contains(d.Value1, "next-hop 10.2.2.2") || !strings.Contains(d.Value1, "admin-distance 1") {
		t.Errorf("value1 = %q", d.Value1)
	}
	if d.Value2 != "None" {
		t.Errorf("value2 = %q", d.Value2)
	}
	if !strings.Contains(d.Span1.Text(), "ip route 10.1.1.2 255.255.255.254 10.2.2.2") {
		t.Errorf("text = %q", d.Span1.Text())
	}
}

func TestStaticRouteAttributeDifference(t *testing.T) {
	// The data-center Scenario-1 bug class: same prefix, different next
	// hops on backup routers (§5.1).
	c1, _ := cisco.Parse("a", "ip route 10.5.0.0 255.255.0.0 10.0.0.1\n")
	c2, _ := cisco.Parse("b", "ip route 10.5.0.0 255.255.0.0 10.0.0.9\n")
	diffs := DiffStaticRoutes(c1, c2)
	if len(diffs) != 2 { // tuple missing from each side
		t.Fatalf("diffs = %+v", diffs)
	}
	if diffs[0].Field != "attributes" {
		t.Errorf("field = %q", diffs[0].Field)
	}
	// The synthetic outage case: tags configured differently due to
	// vendor semantics misunderstanding (§5.1 Scenario 2).
	c3, _ := cisco.Parse("a", "ip route 10.6.0.0 255.255.0.0 10.0.0.1 tag 100\n")
	c4, _ := cisco.Parse("b", "ip route 10.6.0.0 255.255.0.0 10.0.0.1 tag 200\n")
	diffs = DiffStaticRoutes(c3, c4)
	if len(diffs) != 2 {
		t.Fatalf("tag diffs = %+v", diffs)
	}
	if !strings.Contains(diffs[0].Value1, "tag 100") || !strings.Contains(diffs[0].Value2, "tag 200") {
		t.Errorf("tag values = %q / %q", diffs[0].Value1, diffs[0].Value2)
	}
}

func TestStaticRoutesEqualNoDiff(t *testing.T) {
	c1, _ := cisco.Parse("a", "ip route 10.5.0.0 255.255.0.0 10.0.0.1\nip route 10.6.0.0 255.255.0.0 10.0.0.2\n")
	c2, _ := cisco.Parse("b", "ip route 10.6.0.0 255.255.0.0 10.0.0.2\nip route 10.5.0.0 255.255.0.0 10.0.0.1\n")
	if diffs := DiffStaticRoutes(c1, c2); len(diffs) != 0 {
		t.Errorf("order must not matter: %+v", diffs)
	}
}

func TestConnectedRoutes(t *testing.T) {
	c1, _ := cisco.Parse("a", `interface Gi0/0
 ip address 10.0.12.1 255.255.255.0
interface Gi0/1
 ip address 10.0.13.1 255.255.255.0
interface Gi0/2
 ip address 10.0.99.1 255.255.255.0
 shutdown
`)
	c2, _ := cisco.Parse("b", `interface Gi0/0
 ip address 10.0.12.2 255.255.255.0
`)
	diffs := DiffConnectedRoutes(c1, c2)
	// 10.0.13/24 only on c1; shutdown interface excluded; 10.0.12/24
	// shared (different addresses, same subnet).
	if len(diffs) != 1 {
		t.Fatalf("diffs = %+v", diffs)
	}
	if diffs[0].Key != "10.0.13.0/24" || diffs[0].Value2 != "None" {
		t.Errorf("d = %+v", diffs[0])
	}
}

// TestSendCommunityDifference reproduces the university finding: Cisco
// iBGP neighbors missing send-community while Juniper sends communities
// by default (§5.2).
func TestSendCommunityDifference(t *testing.T) {
	c, _ := cisco.Parse("cisco.cfg", `router bgp 65001
 neighbor 10.0.13.3 remote-as 65001
`)
	j, _ := juniper.Parse("juniper.cfg", `routing-options { autonomous-system 65001; }
protocols {
    bgp {
        group internal {
            type internal;
            neighbor 10.0.13.3;
        }
    }
}
`)
	diffs := DiffBGPNeighbors(c, j)
	var found bool
	for _, d := range diffs {
		if d.Field == "send-community" && d.Value1 == "false" && d.Value2 == "true" {
			found = true
		}
	}
	if !found {
		t.Errorf("send-community difference missing: %+v", diffs)
	}
}

func TestRouteReflectorClientDifference(t *testing.T) {
	// The Scenario-2 severe-outage class: a route reflector client
	// mismatch on a replacement device (§5.1).
	c1, _ := cisco.Parse("a", `router bgp 65001
 neighbor 10.0.13.3 remote-as 65001
 neighbor 10.0.13.3 route-reflector-client
 neighbor 10.0.13.3 send-community
`)
	c2, _ := cisco.Parse("b", `router bgp 65001
 neighbor 10.0.13.3 remote-as 65001
 neighbor 10.0.13.3 send-community
`)
	diffs := DiffBGPNeighbors(c1, c2)
	if len(diffs) != 1 || diffs[0].Field != "route-reflector-client" {
		t.Fatalf("diffs = %+v", diffs)
	}
	if diffs[0].Value1 != "true" || diffs[0].Value2 != "false" {
		t.Errorf("values = %q %q", diffs[0].Value1, diffs[0].Value2)
	}
}

func TestNeighborPresence(t *testing.T) {
	c1, _ := cisco.Parse("a", `router bgp 65001
 neighbor 10.0.12.2 remote-as 65002
 neighbor 10.0.13.3 remote-as 65003
`)
	c2, _ := cisco.Parse("b", `router bgp 65001
 neighbor 10.0.12.2 remote-as 65002
`)
	diffs := DiffBGPNeighbors(c1, c2)
	if len(diffs) != 1 || diffs[0].Key != "10.0.13.3" || diffs[0].Field != "presence" {
		t.Fatalf("diffs = %+v", diffs)
	}
}

func TestBGPConfigDiffs(t *testing.T) {
	c1, _ := cisco.Parse("a", `router bgp 65001
 network 10.99.0.0 mask 255.255.0.0
`)
	c2, _ := cisco.Parse("b", `router bgp 65002
 network 10.98.0.0 mask 255.255.0.0
`)
	diffs := DiffBGPConfig(c1, c2)
	var sawASN, sawNet1, sawNet2 bool
	for _, d := range diffs {
		switch {
		case d.Field == "asn":
			sawASN = true
		case d.Field == "network" && d.Key == "10.99.0.0/16":
			sawNet1 = true
		case d.Field == "network" && d.Key == "10.98.0.0/16":
			sawNet2 = true
		}
	}
	if !sawASN || !sawNet1 || !sawNet2 {
		t.Errorf("diffs = %+v", diffs)
	}
	// Process on one side only.
	c3 := ir.NewConfig("x", ir.VendorCisco)
	diffs = DiffBGPConfig(c3, c1)
	if len(diffs) != 1 || diffs[0].Field != "presence" {
		t.Errorf("presence diffs = %+v", diffs)
	}
	if len(DiffBGPConfig(c3, c3)) != 0 {
		t.Error("both nil should be empty")
	}
}

func TestOSPFInterfaceDiffByName(t *testing.T) {
	c1, _ := cisco.Parse("a", `interface Gi0/0
 ip address 10.0.12.1 255.255.255.0
 ip ospf cost 10
router ospf 1
 network 10.0.0.0 0.255.255.255 area 0
`)
	c2, _ := cisco.Parse("b", `interface Gi0/0
 ip address 10.0.12.2 255.255.255.0
 ip ospf cost 20
router ospf 1
 network 10.0.0.0 0.255.255.255 area 0
`)
	diffs := DiffOSPF(c1, c2)
	if len(diffs) != 1 || diffs[0].Field != "cost" || diffs[0].Value1 != "10" || diffs[0].Value2 != "20" {
		t.Fatalf("diffs = %+v", diffs)
	}
}

func TestOSPFInterfaceMatchBySubnet(t *testing.T) {
	// Cross-vendor: interface names differ entirely; matching falls back
	// to the shared subnet.
	c, _ := cisco.Parse("a", `interface GigabitEthernet0/0
 ip address 10.0.12.1 255.255.255.0
 ip ospf cost 10
router ospf 1
 network 10.0.12.0 0.0.0.255 area 0
`)
	j, _ := juniper.Parse("b", `interfaces {
    ge-0/0/0 { unit 0 { family inet { address 10.0.12.2/24; } } }
}
protocols {
    ospf {
        area 0 {
            interface ge-0/0/0.0 { metric 10; }
        }
    }
}
`)
	diffs := DiffOSPF(c, j)
	if len(diffs) != 0 {
		t.Errorf("equal costs over matched subnets should not differ: %+v", diffs)
	}
	// Now with differing area.
	j2, _ := juniper.Parse("b", `interfaces {
    ge-0/0/0 { unit 0 { family inet { address 10.0.12.2/24; } } }
}
protocols {
    ospf {
        area 5 {
            interface ge-0/0/0.0 { metric 10; }
        }
    }
}
`)
	diffs = DiffOSPF(c, j2)
	if len(diffs) != 1 || diffs[0].Field != "area" {
		t.Errorf("area diff = %+v", diffs)
	}
}

func TestOSPFUnmatchedInterfaces(t *testing.T) {
	c1, _ := cisco.Parse("a", `interface Gi0/0
 ip address 10.0.12.1 255.255.255.0
router ospf 1
 network 10.0.0.0 0.255.255.255 area 0
`)
	c2 := ir.NewConfig("b", ir.VendorCisco)
	c2.OSPF = ir.NewOSPFConfig(1)
	diffs := DiffOSPF(c1, c2)
	if len(diffs) != 1 || diffs[0].Field != "presence" || diffs[0].Value2 != "None" {
		t.Errorf("diffs = %+v", diffs)
	}
}

func TestAdminDistances(t *testing.T) {
	// Neither explicit: vendor defaults are not compared.
	c, _ := cisco.Parse("a", "hostname a\n")
	j, _ := juniper.Parse("b", "system { host-name b; }\n")
	if diffs := DiffAdminDistances(c, j); len(diffs) != 0 {
		t.Errorf("default-vs-default should be silent: %+v", diffs)
	}
	// Explicit on one side.
	c2, _ := cisco.Parse("a", `router ospf 1
 distance 115
`)
	c3, _ := cisco.Parse("b", "hostname b\n")
	diffs := DiffAdminDistances(c2, c3)
	if len(diffs) != 1 || diffs[0].Key != "ospf" || diffs[0].Value1 != "115" || diffs[0].Value2 != "110" {
		t.Errorf("diffs = %+v", diffs)
	}
}

func TestDiffAllAggregates(t *testing.T) {
	c1, _ := cisco.Parse("a", `ip route 10.1.1.2 255.255.255.254 10.2.2.2
router bgp 65001
 neighbor 10.0.12.2 remote-as 65002
`)
	c2, _ := cisco.Parse("b", "hostname b\n")
	diffs := DiffAll(c1, c2)
	comps := map[string]bool{}
	for _, d := range diffs {
		comps[d.Component] = true
	}
	if !comps["static-route"] || !comps["bgp-config"] {
		t.Errorf("DiffAll components = %v", comps)
	}
	if (Difference{Component: "x", Key: "k", Field: "f", Value1: "a", Value2: "b"}).String() == "" {
		t.Error("String")
	}
}
