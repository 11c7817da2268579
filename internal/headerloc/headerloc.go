// Package headerloc implements Campion's header localization (§3.2): it
// renders the symbolic input set of a behavioral difference in terms of
// the prefix ranges appearing in the two configurations, via the ddNF
// prefix-range DAG and GetMatch, and extracts single examples for the
// fields that are not localized exhaustively (communities, ports,
// protocols — exactly the paper's design point in §4).
package headerloc

import (
	"sort"

	"repro/internal/bdd"
	"repro/internal/ddnf"
	"repro/internal/ir"
	"repro/internal/netaddr"
	"repro/internal/symbolic"
)

// RouteLocalization is the human-oriented rendering of a route-map
// difference's input set.
type RouteLocalization struct {
	// Terms is the minimal prefix-range representation: each term is an
	// included range minus excluded ranges (the Included/Excluded
	// Prefixes rows of the paper's Table 2).
	Terms []ddnf.FlatTerm
	// Exact reports whether Terms denote the impacted prefix set
	// precisely.
	Exact bool
	// ExampleCommunities is a single example of community tags under
	// which the difference manifests (nil when communities are
	// unconstrained).
	ExampleCommunities []string
	// ExampleRoute is one concrete impacted route advertisement,
	// extracted so that it is a genuine witness of the difference
	// whenever ExampleExact is true.
	ExampleRoute *ir.Route
	// ExampleExact reports whether ExampleRoute is guaranteed to lie in
	// the difference's input set. It is false only when every witness
	// requires an as-path outside the configurations' regex vocabulary
	// (the encoding's "<other>" atom), whose concretization is
	// synthesized and therefore advisory.
	ExampleExact bool
	// CommunityTerms, when populated (the exhaustive-communities option),
	// renders the community dimension completely; CommunityComplete
	// reports whether the enumeration hit its bound.
	CommunityTerms    []CommunityTerm
	CommunityComplete bool
}

// RouteLocalizer localizes route-map differences over a fixed pair of
// configurations. Its ddNF matcher keeps each DAG node's prefix set once
// computed, so a localizer serves all the differences of a pair; like
// the encoding it wraps, it is single-goroutine state.
type RouteLocalizer struct {
	enc   *symbolic.RouteEncoding
	match *ddnf.Matcher

	nonPrefix []int
}

// NewRouteLocalizer extracts the prefix ranges of both configurations
// (prefix-list entries and inline route-filter ranges) and builds the
// ddNF DAG over them.
func NewRouteLocalizer(enc *symbolic.RouteEncoding, cfgs ...*ir.Config) *RouteLocalizer {
	var ranges []netaddr.PrefixRange
	for _, cfg := range cfgs {
		if cfg == nil {
			continue
		}
		ranges = append(ranges, ConfigPrefixRanges(cfg)...)
	}
	return &RouteLocalizer{
		enc: enc,
		match: ddnf.Build(ranges).NewMatcher(ddnf.SetOps{
			F:        enc.F,
			RangeBDD: enc.PrefixRangeBDD,
			Universe: enc.PrefixUniverse,
		}),
		nonPrefix: enc.NonPrefixVars(),
	}
}

// ConfigPrefixRanges lists every prefix range mentioned by a
// configuration's routing policy: prefix-list entries and inline
// route-filter ranges.
func ConfigPrefixRanges(cfg *ir.Config) []netaddr.PrefixRange {
	var out []netaddr.PrefixRange
	for _, pl := range cfg.PrefixLists {
		for _, e := range pl.Entries {
			out = append(out, e.Range)
		}
	}
	for _, rm := range cfg.RouteMaps {
		for _, cl := range rm.Clauses {
			for _, m := range cl.Matches {
				switch m := m.(type) {
				case ir.MatchPrefixRanges:
					out = append(out, m.Ranges...)
				case ir.MatchPrefixListFilter:
					// The filter applies its modifier to every list
					// entry; the widened ranges are part of the
					// vocabulary the difference is expressed in.
					if pl := cfg.PrefixLists[m.List]; pl != nil {
						for _, e := range pl.Entries {
							out = append(out, ir.ApplyRangeModifier(e.Range, m.Modifier))
						}
					}
				}
			}
		}
	}
	return out
}

// CommunityTerm is one alternative of an exhaustive community
// localization: the difference manifests when every Present atom is
// carried and every Absent atom is not (other communities are free).
type CommunityTerm struct {
	Present []string
	Absent  []string
}

func (t CommunityTerm) String() string {
	return string(t.AppendTo(nil))
}

// AppendTo appends the String form of t to b: each Present atom as
// "+atom" and each Absent atom as "−atom", space-separated, or "(any)"
// when the term constrains no atom.
func (t CommunityTerm) AppendTo(b []byte) []byte {
	if len(t.Present)+len(t.Absent) == 0 {
		return append(b, "(any)"...)
	}
	sep := ""
	for _, p := range t.Present {
		b = append(append(append(b, sep...), '+'), p...)
		sep = " "
	}
	for _, a := range t.Absent {
		b = append(append(append(b, sep...), "−"...), a...)
		sep = " "
	}
	return b
}

// LocalizeCommunities renders the community dimension of a difference
// exhaustively, as a union of community terms — the HeaderLocalize
// extension the paper describes in §4 ("it is possible to extend
// HeaderLocalize to provide exhaustive information across multiple parts
// of a route advertisement"). The boolean result reports completeness;
// enumeration stops at limit terms.
func (l *RouteLocalizer) LocalizeCommunities(inputs bdd.Node, limit int) ([]CommunityTerm, bool) {
	projected := l.enc.F.Exists(inputs, l.enc.NonCommunityVars())
	if projected == bdd.True {
		return []CommunityTerm{{}}, true
	}
	var out []CommunityTerm
	complete := true
	l.enc.F.WalkCubes(projected, func(a bdd.Assignment) bool {
		if len(out) >= limit {
			complete = false
			return false
		}
		present, absent := l.enc.CommunityCube(a)
		out = append(out, CommunityTerm{Present: present, Absent: absent})
		return true
	})
	return out, complete
}

// Localize renders the input set of one difference.
func (l *RouteLocalizer) Localize(inputs bdd.Node) RouteLocalization {
	prefixSet := l.enc.F.Exists(inputs, l.nonPrefix)
	terms, exact := l.match.GetMatch(prefixSet)
	loc := RouteLocalization{
		Terms: ddnf.Simplify(terms),
		Exact: exact,
	}
	if r, exact := l.enc.WitnessRoute(inputs); r != nil {
		loc.ExampleRoute = r
		loc.ExampleExact = exact
		for c := range r.Communities {
			loc.ExampleCommunities = append(loc.ExampleCommunities, c)
		}
		sort.Strings(loc.ExampleCommunities)
	}
	return loc
}

// ACLLocalization renders an ACL difference: exhaustive source and
// destination address localization plus a single example for the other
// header fields ("+N more", as in the paper's Table 7).
type ACLLocalization struct {
	SrcTerms []ddnf.FlatTerm
	DstTerms []ddnf.FlatTerm
	SrcExact bool
	DstExact bool
	// ExampleFields are "field: value" strings for the non-address
	// constraints of one example packet; More counts further constrained
	// variables not rendered.
	ExampleFields []string
	More          int
	ExamplePacket ir.Packet
}

// ACLLocalizer localizes ACL differences over a fixed pair of ACLs, with
// one ddNF matcher per address field (single-goroutine state, as for
// RouteLocalizer).
type ACLLocalizer struct {
	enc            *symbolic.PacketEncoding
	src, dst       *ddnf.Matcher
	nonSrc, nonDst []int
}

// aclAddressRanges extracts the address vocabulary of the ACLs: each
// contiguous wildcard becomes the range of /32 addresses under its
// prefix. Non-contiguous masks contribute nothing (and can make
// localization inexact, which is reported).
func aclAddressRanges(field func(*ir.ACLLine) []netaddr.Wildcard, acls ...*ir.ACL) []netaddr.PrefixRange {
	var out []netaddr.PrefixRange
	for _, acl := range acls {
		if acl == nil {
			continue
		}
		for _, line := range acl.Lines {
			for _, w := range field(line) {
				if p, ok := w.AsPrefix(); ok {
					out = append(out, netaddr.PrefixRange{Prefix: p, Lo: 32, Hi: 32})
				}
			}
		}
	}
	return out
}

// NewACLLocalizer builds the source and destination address DAGs from the
// ACL pair's own address constants.
func NewACLLocalizer(enc *symbolic.PacketEncoding, acls ...*ir.ACL) *ACLLocalizer {
	srcRanges := aclAddressRanges(func(l *ir.ACLLine) []netaddr.Wildcard { return l.Src }, acls...)
	dstRanges := aclAddressRanges(func(l *ir.ACLLine) []netaddr.Wildcard { return l.Dst }, acls...)
	return &ACLLocalizer{
		enc: enc,
		src: ddnf.Build(srcRanges).NewMatcher(ddnf.SetOps{
			F: enc.F,
			RangeBDD: func(r netaddr.PrefixRange) bdd.Node {
				return enc.SrcPrefixBDD(r.Prefix)
			},
			Universe: bdd.True,
		}),
		dst: ddnf.Build(dstRanges).NewMatcher(ddnf.SetOps{
			F: enc.F,
			RangeBDD: func(r netaddr.PrefixRange) bdd.Node {
				return enc.DstPrefixBDD(r.Prefix)
			},
			Universe: bdd.True,
		}),
		nonSrc: enc.NonAddrVars("src"),
		nonDst: enc.NonAddrVars("dst"),
	}
}

// Localize renders the input set of one ACL difference.
func (l *ACLLocalizer) Localize(inputs bdd.Node) ACLLocalization {
	srcSet := l.enc.F.Exists(inputs, l.nonSrc)
	dstSet := l.enc.F.Exists(inputs, l.nonDst)
	srcTerms, srcExact := l.src.GetMatch(srcSet)
	dstTerms, dstExact := l.dst.GetMatch(dstSet)
	loc := ACLLocalization{
		SrcTerms: ddnf.Simplify(srcTerms),
		DstTerms: ddnf.Simplify(dstTerms),
		SrcExact: srcExact,
		DstExact: dstExact,
	}
	if a := l.enc.F.AnySat(inputs); a != nil {
		loc.ExampleFields, loc.More = l.enc.DescribeExample(a)
		loc.ExamplePacket = l.enc.PacketFromAssignment(a)
	}
	return loc
}
