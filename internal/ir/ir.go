// Package ir defines Campion's vendor-independent configuration
// representation — the role Batfish's vendor-independent model plays for
// the original system. Parsers for each vendor dialect (internal/cisco,
// internal/juniper) normalize configurations into this IR; the semantic
// and structural differs consume it.
//
// Every IR element carries a TextSpan pointing back at the configuration
// lines it was parsed from. Text localization is therefore exact: a
// difference in an IR element is reported with the original vendor text.
package ir

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/netaddr"
)

// Vendor identifies the configuration dialect a Config was parsed from.
type Vendor int

// Supported vendors.
const (
	VendorUnknown Vendor = iota
	VendorCisco
	VendorJuniper
	VendorArista
)

func (v Vendor) String() string {
	switch v {
	case VendorCisco:
		return "cisco"
	case VendorJuniper:
		return "juniper"
	case VendorArista:
		return "arista"
	}
	return "unknown"
}

// TextSpan records where an IR element came from in the original
// configuration, including the raw text, for exact text localization.
type TextSpan struct {
	File      string
	StartLine int // 1-based, inclusive
	EndLine   int // 1-based, inclusive
	Lines     []string
}

// Text returns the raw configuration text of the span.
func (s TextSpan) Text() string {
	return strings.Join(s.Lines, "\n")
}

// Location returns "file:start-end" for presentation.
func (s TextSpan) Location() string {
	if s.File == "" && s.StartLine == 0 {
		return ""
	}
	var buf [64]byte
	b := append(append(buf[:0], s.File...), ':')
	b = strconv.AppendInt(b, int64(s.StartLine), 10)
	if s.StartLine != s.EndLine {
		b = append(b, '-')
		b = strconv.AppendInt(b, int64(s.EndLine), 10)
	}
	return string(b)
}

// IsZero reports whether the span carries no information.
func (s TextSpan) IsZero() bool {
	return s.File == "" && s.StartLine == 0 && len(s.Lines) == 0
}

// Merge extends s to cover t as well (same file assumed).
func (s TextSpan) Merge(t TextSpan) TextSpan {
	if s.IsZero() {
		return t
	}
	if t.IsZero() {
		return s
	}
	out := s
	if t.StartLine < out.StartLine {
		out.StartLine = t.StartLine
	}
	if t.EndLine > out.EndLine {
		out.EndLine = t.EndLine
	}
	out.Lines = append(append([]string{}, s.Lines...), t.Lines...)
	return out
}

// Action is a permit/deny decision.
type Action int

// Actions.
const (
	Deny Action = iota
	Permit
)

func (a Action) String() string {
	if a == Permit {
		return "permit"
	}
	return "deny"
}

// Protocol identifies a routing protocol, used by redistribution and
// administrative distances.
type Protocol int

// Protocols.
const (
	ProtoConnected Protocol = iota
	ProtoStatic
	ProtoOSPF
	ProtoBGP
	ProtoIBGP
	ProtoAggregate
	ProtoLocal
)

func (p Protocol) String() string {
	switch p {
	case ProtoConnected:
		return "connected"
	case ProtoStatic:
		return "static"
	case ProtoOSPF:
		return "ospf"
	case ProtoBGP:
		return "bgp"
	case ProtoIBGP:
		return "ibgp"
	case ProtoAggregate:
		return "aggregate"
	case ProtoLocal:
		return "local"
	}
	return fmt.Sprintf("protocol(%d)", int(p))
}

// Config is a parsed router configuration in vendor-independent form.
type Config struct {
	Hostname string
	Vendor   Vendor
	File     string

	Interfaces   []*Interface
	StaticRoutes []*StaticRoute

	PrefixLists    map[string]*PrefixList
	CommunityLists map[string]*CommunityList
	ASPathLists    map[string]*ASPathList
	ACLs           map[string]*ACL
	RouteMaps      map[string]*RouteMap

	BGP  *BGPConfig
	OSPF *OSPFConfig

	// AdminDistances maps a protocol to its administrative distance;
	// parsers pre-fill vendor defaults and overwrite explicitly
	// configured values.
	AdminDistances map[Protocol]int
	// ExplicitDistances marks protocols whose distance was explicitly
	// configured (vendor defaults differ by design and are only compared
	// when at least one side configured a value).
	ExplicitDistances map[Protocol]bool

	// Unrecognized collects configuration lines the parser did not
	// understand. They are surfaced, never silently dropped.
	Unrecognized []TextSpan
}

// NewConfig returns an empty configuration with all maps allocated.
func NewConfig(hostname string, vendor Vendor) *Config {
	return &Config{
		Hostname:          hostname,
		Vendor:            vendor,
		PrefixLists:       map[string]*PrefixList{},
		CommunityLists:    map[string]*CommunityList{},
		ASPathLists:       map[string]*ASPathList{},
		ACLs:              map[string]*ACL{},
		RouteMaps:         map[string]*RouteMap{},
		AdminDistances:    map[Protocol]int{},
		ExplicitDistances: map[Protocol]bool{},
	}
}

// Interface is a router interface with its L3 and IGP attributes.
type Interface struct {
	Name        string
	Address     netaddr.Addr
	Subnet      netaddr.Prefix // connected subnet (address + mask)
	HasAddress  bool
	Description string
	Shutdown    bool

	// Data-plane filters applied to the interface.
	ACLIn  string
	ACLOut string

	// OSPF per-interface attributes (consolidated into OSPFConfig too).
	OSPFCost    int
	OSPFArea    int64
	OSPFPassive bool
	OSPFEnabled bool

	Span TextSpan
}

// StaticRoute is a single configured static route.
type StaticRoute struct {
	Prefix        netaddr.Prefix
	NextHop       netaddr.Addr
	HasNextHop    bool
	Interface     string // exit interface, if configured instead of next hop
	AdminDistance int
	Tag           int64
	HasTag        bool
	Span          TextSpan
}

func (r *StaticRoute) String() string {
	nh := r.Interface
	if r.HasNextHop {
		nh = r.NextHop.String()
	}
	return fmt.Sprintf("%s via %s (ad %d)", r.Prefix, nh, r.AdminDistance)
}

// PrefixList is a named list of (action, prefix range) entries, matched
// first-entry-wins.
type PrefixList struct {
	Name    string
	Entries []PrefixListEntry
	Span    TextSpan
}

// PrefixListEntry is one line of a prefix list.
type PrefixListEntry struct {
	Seq    int
	Action Action
	Range  netaddr.PrefixRange
	Span   TextSpan
}

// Matches reports the action of the first matching entry, or (Deny, false)
// when nothing matches (the implicit deny).
func (l *PrefixList) Matches(p netaddr.Prefix) (Action, bool) {
	for _, e := range l.Entries {
		if e.Range.ContainsPrefix(p) {
			return e.Action, true
		}
	}
	return Deny, false
}

// CommunityMatcher matches a single community string, either exactly
// (Literal) or by regular expression (Regex). Exactly one field is set.
type CommunityMatcher struct {
	Literal string
	Regex   string
}

func (m CommunityMatcher) String() string {
	if m.Regex != "" {
		return "regex:" + m.Regex
	}
	return m.Literal
}

// CommunityListEntry is one entry of a community list: the entry matches a
// route when ALL of its conjunct matchers match some community on the route
// (this captures both the Cisco one-line-AND semantics and the Juniper
// members-AND semantics). Entries within a list are tried in order.
type CommunityListEntry struct {
	Action    Action
	Conjuncts []CommunityMatcher
	Span      TextSpan
}

// CommunityList is a named list of community entries, first-match-wins
// across entries.
type CommunityList struct {
	Name    string
	Entries []CommunityListEntry
	Span    TextSpan
}

// ASPathListEntry is one regex entry of an as-path access list.
type ASPathListEntry struct {
	Action Action
	Regex  string
	Span   TextSpan
}

// ASPathList is a named list of as-path regex entries.
type ASPathList struct {
	Name    string
	Entries []ASPathListEntry
	Span    TextSpan
}
