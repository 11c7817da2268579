// Package structdiff implements Campion's StructuralDiff (§3.3): the
// configuration components whose behavioral equivalence coincides with
// structural equality — static routes, connected routes, BGP neighbor
// properties, OSPF link properties, and administrative distances — are
// represented as atoms, tuples, and sets, and compared directly. Because
// the comparison happens on the component structure itself, localization
// is immediate: every difference carries the two source spans.
package structdiff

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/ir"
	"repro/internal/netaddr"
)

// Difference is a single structural mismatch between corresponding
// components of the two configurations. Value1/Value2 render the two
// sides; "None" marks absence (matching the paper's Table 4 output).
type Difference struct {
	// Component classifies the difference: "static-route",
	// "connected-route", "bgp-neighbor", "bgp-config", "ospf-interface",
	// "admin-distance".
	Component string
	// Key identifies the compared element (prefix, neighbor address,
	// interface name, protocol).
	Key string
	// Field is the attribute that differs; "presence" when the element
	// exists on one side only.
	Field string
	// Value1 and Value2 render the two sides' values.
	Value1, Value2 string
	// Span1 and Span2 locate the relevant configuration text (zero span
	// when the element is absent on that side).
	Span1, Span2 ir.TextSpan
}

func (d Difference) String() string {
	return fmt.Sprintf("[%s] %s %s: %s vs %s", d.Component, d.Key, d.Field, d.Value1, d.Value2)
}

const none = "None"

// DiffAll runs every structural comparison between two configurations.
func DiffAll(c1, c2 *ir.Config) []Difference {
	var out []Difference
	out = append(out, DiffStaticRoutes(c1, c2)...)
	out = append(out, DiffConnectedRoutes(c1, c2)...)
	out = append(out, DiffBGPConfig(c1, c2)...)
	out = append(out, DiffBGPNeighbors(c1, c2)...)
	out = append(out, DiffOSPF(c1, c2)...)
	out = append(out, DiffAdminDistances(c1, c2)...)
	return out
}

// staticKey renders the comparable attribute tuple of a static route.
func staticKey(r *ir.StaticRoute) string {
	nh := r.Interface
	if r.HasNextHop {
		nh = r.NextHop.String()
	}
	var buf [96]byte
	b := append(append(buf[:0], "next-hop "...), nh...)
	b = strconv.AppendInt(append(b, ", admin-distance "...), int64(r.AdminDistance), 10)
	if r.HasTag {
		b = strconv.AppendInt(append(b, ", tag "...), r.Tag, 10)
	}
	return string(b)
}

// DiffStaticRoutes compares the two static route sets: routes for a
// prefix present on one side only, and same-prefix routes whose
// attribute tuples (next hop, administrative distance, tag) differ.
func DiffStaticRoutes(c1, c2 *ir.Config) []Difference {
	group := func(c *ir.Config) map[netaddr.Prefix][]*ir.StaticRoute {
		m := make(map[netaddr.Prefix][]*ir.StaticRoute, len(c.StaticRoutes))
		for _, r := range c.StaticRoutes {
			m[r.Prefix] = append(m[r.Prefix], r)
		}
		return m
	}
	g1, g2 := group(c1), group(c2)
	// Every route of a prefix on one side only is a presence difference.
	prefixes := make([]netaddr.Prefix, 0, len(g1)+len(g2))
	oneSided := 0
	for p, rs := range g1 {
		prefixes = append(prefixes, p)
		if _, ok := g2[p]; !ok {
			oneSided += len(rs)
		}
	}
	for p, rs := range g2 {
		if _, ok := g1[p]; !ok {
			prefixes = append(prefixes, p)
			oneSided += len(rs)
		}
	}
	slices.SortFunc(prefixes, netaddr.Prefix.Compare)

	var out []Difference
	if oneSided > 0 {
		out = make([]Difference, 0, oneSided)
	}
	for _, p := range prefixes {
		r1, r2 := g1[p], g2[p]
		switch {
		case len(r1) == 0:
			for _, r := range r2 {
				out = append(out, Difference{
					Component: "static-route", Key: p.String(), Field: "presence",
					Value1: none, Value2: staticKey(r), Span2: r.Span,
				})
			}
		case len(r2) == 0:
			for _, r := range r1 {
				out = append(out, Difference{
					Component: "static-route", Key: p.String(), Field: "presence",
					Value1: staticKey(r), Value2: none, Span1: r.Span,
				})
			}
		default:
			// Same prefix on both sides: set-difference of attribute
			// tuples.
			t1 := map[string]*ir.StaticRoute{}
			t2 := map[string]*ir.StaticRoute{}
			for _, r := range r1 {
				t1[staticKey(r)] = r
			}
			for _, r := range r2 {
				t2[staticKey(r)] = r
			}
			for _, k := range sortedKeys(t1) {
				if _, ok := t2[k]; !ok {
					d := Difference{
						Component: "static-route", Key: p.String(), Field: "attributes",
						Value1: k, Value2: renderTuples(t2), Span1: t1[k].Span,
					}
					for _, r := range r2 {
						d.Span2 = d.Span2.Merge(r.Span)
					}
					out = append(out, d)
				}
			}
			for _, k := range sortedKeys(t2) {
				if _, ok := t1[k]; !ok {
					d := Difference{
						Component: "static-route", Key: p.String(), Field: "attributes",
						Value1: renderTuples(t1), Value2: k, Span2: t2[k].Span,
					}
					for _, r := range r1 {
						d.Span1 = d.Span1.Merge(r.Span)
					}
					out = append(out, d)
				}
			}
		}
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func renderTuples(m map[string]*ir.StaticRoute) string {
	return strings.Join(sortedKeys(m), "; ")
}

// DiffConnectedRoutes compares the sets of subnets attached to active
// interfaces.
func DiffConnectedRoutes(c1, c2 *ir.Config) []Difference {
	collect := func(c *ir.Config) map[netaddr.Prefix]*ir.Interface {
		m := make(map[netaddr.Prefix]*ir.Interface, len(c.Interfaces))
		for _, i := range c.Interfaces {
			if i.HasAddress && !i.Shutdown {
				m[i.Subnet] = i
			}
		}
		return m
	}
	m1, m2 := collect(c1), collect(c2)
	// only holds the subnets on side 1 alone, then those on side 2 alone.
	only := make([]netaddr.Prefix, 0, len(m1)+len(m2))
	for p := range m1 {
		if _, ok := m2[p]; !ok {
			only = append(only, p)
		}
	}
	n1 := len(only)
	for p := range m2 {
		if _, ok := m1[p]; !ok {
			only = append(only, p)
		}
	}
	if len(only) == 0 {
		return nil
	}
	slices.SortFunc(only[:n1], netaddr.Prefix.Compare)
	slices.SortFunc(only[n1:], netaddr.Prefix.Compare)
	out := make([]Difference, 0, len(only))
	for _, p := range only[:n1] {
		out = append(out, Difference{
			Component: "connected-route", Key: p.String(), Field: "presence",
			Value1: "interface " + m1[p].Name, Value2: none, Span1: m1[p].Span,
		})
	}
	for _, p := range only[n1:] {
		out = append(out, Difference{
			Component: "connected-route", Key: p.String(), Field: "presence",
			Value1: none, Value2: "interface " + m2[p].Name, Span2: m2[p].Span,
		})
	}
	return out
}

// DiffBGPConfig compares process-level BGP attributes: presence, ASN, and
// the originated network set.
func DiffBGPConfig(c1, c2 *ir.Config) []Difference {
	b1, b2 := c1.BGP, c2.BGP
	switch {
	case b1 == nil && b2 == nil:
		return nil
	case b1 == nil:
		return []Difference{{Component: "bgp-config", Key: "process", Field: "presence",
			Value1: none, Value2: fmt.Sprintf("asn %d", b2.ASN), Span2: b2.Span}}
	case b2 == nil:
		return []Difference{{Component: "bgp-config", Key: "process", Field: "presence",
			Value1: fmt.Sprintf("asn %d", b1.ASN), Value2: none, Span1: b1.Span}}
	}
	var out []Difference
	if b1.ASN != b2.ASN {
		out = append(out, Difference{Component: "bgp-config", Key: "process", Field: "asn",
			Value1: fmt.Sprintf("%d", b1.ASN), Value2: fmt.Sprintf("%d", b2.ASN),
			Span1: b1.Span, Span2: b2.Span})
	}
	n1 := map[string]bool{}
	n2 := map[string]bool{}
	for _, p := range b1.Networks {
		n1[p.String()] = true
	}
	for _, p := range b2.Networks {
		n2[p.String()] = true
	}
	for _, p := range sortedKeys(n1) {
		if !n2[p] {
			out = append(out, Difference{Component: "bgp-config", Key: p, Field: "network",
				Value1: "advertised", Value2: none, Span1: b1.Span, Span2: b2.Span})
		}
	}
	for _, p := range sortedKeys(n2) {
		if !n1[p] {
			out = append(out, Difference{Component: "bgp-config", Key: p, Field: "network",
				Value1: none, Value2: "advertised", Span1: b1.Span, Span2: b2.Span})
		}
	}
	return out
}

// neighborProps lists the structural attributes of a BGP session compared
// per Table 1's "Other BGP Properties" (policies are handled by
// SemanticDiff).
func neighborProps(n *ir.BGPNeighbor) map[string]string {
	return map[string]string{
		"remote-as":              fmt.Sprintf("%d", n.RemoteAS),
		"route-reflector-client": fmt.Sprintf("%v", n.RouteReflectorClient),
		"send-community":         fmt.Sprintf("%v", n.SendCommunity),
		"next-hop-self":          fmt.Sprintf("%v", n.NextHopSelf),
		"ebgp-multihop":          fmt.Sprintf("%v", n.EBGPMultihop),
		"shutdown":               fmt.Sprintf("%v", n.Shutdown),
	}
}

// DiffBGPNeighbors compares the neighbor sets (matched by peer address —
// the MatchPolicies heuristic of §4) and each matched pair's structural
// session attributes.
func DiffBGPNeighbors(c1, c2 *ir.Config) []Difference {
	var out []Difference
	get := func(c *ir.Config) map[string]*ir.BGPNeighbor {
		if c.BGP == nil {
			return map[string]*ir.BGPNeighbor{}
		}
		return c.BGP.Neighbors
	}
	m1, m2 := get(c1), get(c2)
	var addrs []string
	seen := map[string]bool{}
	for a := range m1 {
		if !seen[a] {
			seen[a] = true
			addrs = append(addrs, a)
		}
	}
	for a := range m2 {
		if !seen[a] {
			seen[a] = true
			addrs = append(addrs, a)
		}
	}
	sort.Strings(addrs)
	for _, a := range addrs {
		n1, n2 := m1[a], m2[a]
		switch {
		case n1 == nil:
			out = append(out, Difference{Component: "bgp-neighbor", Key: a, Field: "presence",
				Value1: none, Value2: "configured", Span2: n2.Span})
		case n2 == nil:
			out = append(out, Difference{Component: "bgp-neighbor", Key: a, Field: "presence",
				Value1: "configured", Value2: none, Span1: n1.Span})
		default:
			p1, p2 := neighborProps(n1), neighborProps(n2)
			for _, field := range sortedKeys(p1) {
				if p1[field] != p2[field] {
					out = append(out, Difference{Component: "bgp-neighbor", Key: a, Field: field,
						Value1: p1[field], Value2: p2[field], Span1: n1.Span, Span2: n2.Span})
				}
			}
		}
	}
	return out
}

// MatchOSPFInterfaces pairs OSPF interfaces across the two routers: by
// name when the names coincide, otherwise by attached subnet (backup
// routers usually have different addresses but advertise the same
// subnets — §4's matching heuristic).
func MatchOSPFInterfaces(o1, o2 *ir.OSPFConfig) (pairs [][2]*ir.OSPFInterface, only1, only2 []*ir.OSPFInterface) {
	used2 := map[string]bool{}
	for _, name := range o1.InterfaceNames() {
		i1 := o1.Interfaces[name]
		if i2, ok := o2.Interfaces[name]; ok {
			pairs = append(pairs, [2]*ir.OSPFInterface{i1, i2})
			used2[name] = true
			continue
		}
		var bySubnet *ir.OSPFInterface
		if i1.Subnet.Len > 0 {
			for _, n2 := range o2.InterfaceNames() {
				i2 := o2.Interfaces[n2]
				if !used2[n2] && i2.Subnet == i1.Subnet {
					bySubnet = i2
					used2[n2] = true
					break
				}
			}
		}
		if bySubnet != nil {
			pairs = append(pairs, [2]*ir.OSPFInterface{i1, bySubnet})
		} else {
			only1 = append(only1, i1)
		}
	}
	for _, n2 := range o2.InterfaceNames() {
		if !used2[n2] {
			only2 = append(only2, o2.Interfaces[n2])
		}
	}
	return pairs, only1, only2
}

func ospfProps(i *ir.OSPFInterface) map[string]string {
	m := map[string]string{
		"cost":    fmt.Sprintf("%d", i.Cost),
		"area":    fmt.Sprintf("%d", i.Area),
		"passive": fmt.Sprintf("%v", i.Passive),
	}
	if i.HelloInterval != 0 {
		m["hello-interval"] = fmt.Sprintf("%d", i.HelloInterval)
	}
	if i.DeadInterval != 0 {
		m["dead-interval"] = fmt.Sprintf("%d", i.DeadInterval)
	}
	return m
}

// DiffOSPF compares matched OSPF links' attributes and reports unmatched
// links.
func DiffOSPF(c1, c2 *ir.Config) []Difference {
	o1, o2 := c1.OSPF, c2.OSPF
	switch {
	case o1 == nil && o2 == nil:
		return nil
	case o1 == nil:
		return []Difference{{Component: "ospf-config", Key: "process", Field: "presence",
			Value1: none, Value2: "configured", Span2: o2.Span}}
	case o2 == nil:
		return []Difference{{Component: "ospf-config", Key: "process", Field: "presence",
			Value1: "configured", Value2: none, Span1: o1.Span}}
	}
	var out []Difference
	pairs, only1, only2 := MatchOSPFInterfaces(o1, o2)
	for _, pr := range pairs {
		i1, i2 := pr[0], pr[1]
		p1, p2 := ospfProps(i1), ospfProps(i2)
		fields := map[string]bool{}
		for f := range p1 {
			fields[f] = true
		}
		for f := range p2 {
			fields[f] = true
		}
		key := i1.Name
		if i2.Name != i1.Name {
			key = i1.Name + "~" + i2.Name
		}
		var names []string
		for f := range fields {
			names = append(names, f)
		}
		sort.Strings(names)
		for _, f := range names {
			v1, ok1 := p1[f]
			v2, ok2 := p2[f]
			if !ok1 {
				v1 = none
			}
			if !ok2 {
				v2 = none
			}
			if v1 != v2 {
				out = append(out, Difference{Component: "ospf-interface", Key: key, Field: f,
					Value1: v1, Value2: v2, Span1: i1.Span, Span2: i2.Span})
			}
		}
	}
	for _, i1 := range only1 {
		out = append(out, Difference{Component: "ospf-interface", Key: i1.Name, Field: "presence",
			Value1: "enabled", Value2: none, Span1: i1.Span})
	}
	for _, i2 := range only2 {
		out = append(out, Difference{Component: "ospf-interface", Key: i2.Name, Field: "presence",
			Value1: none, Value2: "enabled", Span2: i2.Span})
	}
	return out
}

// DiffAdminDistances compares per-protocol administrative distances.
// Vendor defaults differ by design (IOS static=1, JunOS static=5), so a
// protocol is only compared when at least one side configured its
// distance explicitly.
func DiffAdminDistances(c1, c2 *ir.Config) []Difference {
	var out []Difference
	protos := []ir.Protocol{ir.ProtoConnected, ir.ProtoStatic, ir.ProtoOSPF, ir.ProtoBGP, ir.ProtoIBGP}
	for _, p := range protos {
		d1, ok1 := c1.AdminDistances[p]
		d2, ok2 := c2.AdminDistances[p]
		if !ok1 || !ok2 {
			continue
		}
		if !c1.ExplicitDistances[p] && !c2.ExplicitDistances[p] {
			continue
		}
		if d1 != d2 {
			out = append(out, Difference{Component: "admin-distance", Key: p.String(), Field: "distance",
				Value1: fmt.Sprintf("%d", d1), Value2: fmt.Sprintf("%d", d2)})
		}
	}
	return out
}
