package symbolic

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/bdd"
	"repro/internal/community"
	"repro/internal/ir"
	"repro/internal/netaddr"
)

// protocolOrder fixes the one-hot encoding order of route protocols.
var protocolOrder = []ir.Protocol{
	ir.ProtoConnected, ir.ProtoStatic, ir.ProtoOSPF, ir.ProtoBGP,
	ir.ProtoIBGP, ir.ProtoAggregate, ir.ProtoLocal,
}

// RouteEncoding maps route advertisements onto BDD variables. The
// vocabulary (community atoms, as-path atoms, MED/tag constants) is
// derived from the pair of configurations being compared, following the
// finite-atomization approach of the paper's Batfish/Bonsai substrate.
type RouteEncoding struct {
	F *bdd.Factory

	prefixBits bitVec // 32 vars: advertised prefix address bits
	prefixLen  bitVec // 6 vars: advertised prefix length (0..32)
	nextHop    bitVec // 32 vars: next-hop address bits

	Comms    *community.Universe
	commVar0 int

	asAtoms []string // as-path atom strings; the last entry is "<other>"
	asVar0  int

	medVals []int64
	medVar0 int

	tagVals []int64
	tagVar0 int

	protoVar0 int

	// WellFormed constrains assignments to represent real routes: valid
	// prefix length with zero padding beyond it, at most one MED/tag
	// atom, exactly one protocol and one as-path atom.
	WellFormed bdd.Node
	// PrefixUniverse is WellFormed's prefix conjunct: the valid (prefix
	// address, length) pairs. Its other conjuncts are satisfiable and
	// share no variable with it, so it equals WellFormed with the
	// NonPrefixVars quantified out — the universe header localization
	// complements prefix sets within.
	PrefixUniverse bdd.Node

	// cache of prefix length interval BDDs
	lenRange map[[2]uint8]bdd.Node
	regexps  map[string]*community.Matcher

	// Memo tables keyed by range value / list identity: a prefix list or
	// community list referenced by twenty clauses is encoded once per
	// encoding lifetime instead of once per reference. List keys are the
	// parsed *ir pointers — list objects are immutable after parsing, and
	// pointer identity is exactly "same list of the same config".
	prefixRanges map[netaddr.PrefixRange]bdd.Node
	prefixLists  map[*ir.PrefixList]bdd.Node
	nextHopLists map[*ir.PrefixList]bdd.Node
	commLists    map[*ir.CommunityList]bdd.Node
	asPathLists  map[*ir.ASPathList]bdd.Node

	// sigWinA and sigWinB are the MSB offsets of the two guard-signature
	// windows into the prefix address bits (sig.go); clauseSigs memoizes
	// per-clause masks.
	sigWinA, sigWinB int
	clauseSigs       map[*ir.RouteMapClause]Sig

	memo MemoStats
}

// MemoStats counts the encoding-level memo tables' recalls vs encodes —
// how often a prefix range / prefix list / community list / as-path list
// BDD was reused instead of rebuilt. An encoding is single-goroutine
// state (it owns its factory), so plain counters suffice and cost one
// increment per memo probe.
type MemoStats struct {
	RangeHits, RangeMisses int // prefix-range and length-interval BDDs
	ListHits, ListMisses   int // prefix/next-hop/community/as-path lists
}

// Memo reports the encoding's memo-table counters since construction.
func (e *RouteEncoding) Memo() MemoStats { return e.memo }

// ForgetConfigs empties the memo tables keyed by *ir pointers (the list
// tables and the clause signatures), so a long-lived encoding stops
// holding configurations it will not see again. Their BDDs stay in the
// factory, and a later compile of the same list hash-conses onto them.
func (e *RouteEncoding) ForgetConfigs() {
	clear(e.prefixLists)
	clear(e.nextHopLists)
	clear(e.commLists)
	clear(e.asPathLists)
	clear(e.clauseSigs)
}

// NewRouteEncoding builds an encoding whose atom vocabulary covers all the
// given configurations.
func NewRouteEncoding(cfgs ...*ir.Config) *RouteEncoding {
	return NewRouteEncodingInto(nil, cfgs...)
}

// vocab is the atom vocabulary a set of configurations induces on the
// route encoding: the raw gathered lists, in deterministic config order.
type vocab struct {
	literals, regexes, asRegexes []string
	medVals, tagVals             []int64
}

// gatherVocab walks the configurations and collects every community
// literal/regex, as-path regex, and MED/tag constant the encoding must
// atomize.
func gatherVocab(cfgs ...*ir.Config) vocab {
	var v vocab
	medSet := map[int64]bool{}
	tagSet := map[int64]bool{}
	for _, cfg := range cfgs {
		if cfg == nil {
			continue
		}
		for _, cl := range cfg.CommunityLists {
			for _, e := range cl.Entries {
				for _, m := range e.Conjuncts {
					if m.Regex != "" {
						v.regexes = append(v.regexes, m.Regex)
					} else {
						v.literals = append(v.literals, m.Literal)
					}
				}
			}
		}
		for _, al := range cfg.ASPathLists {
			for _, e := range al.Entries {
				v.asRegexes = append(v.asRegexes, e.Regex)
			}
		}
		for _, rm := range cfg.RouteMaps {
			for _, cl := range rm.Clauses {
				for _, m := range cl.Matches {
					switch m := m.(type) {
					case ir.MatchMED:
						medSet[m.Value] = true
					case ir.MatchTag:
						tagSet[m.Value] = true
					}
				}
				for _, s := range cl.Sets {
					if sc, ok := s.(ir.SetCommunities); ok {
						v.literals = append(v.literals, sc.Communities...)
					}
				}
			}
		}
	}
	v.medVals = sortedInt64s(medSet)
	v.tagVals = sortedInt64s(tagSet)
	return v
}

// VocabFingerprint digests the encoding vocabulary the configurations
// induce, canonicalized so gathering order and duplicates don't matter.
// Every step from vocabulary to encoding is a pure function of the
// deduplicated, sorted atom sets (NewUniverse and the as-path atomization
// sort and dedup internally; the variable layout depends only on the
// resulting sizes), so two configuration sets with equal fingerprints
// produce structurally identical RouteEncodings — the invariant the
// cross-pair compiled-policy cache relies on to reuse one factory across
// pairs.
func VocabFingerprint(cfgs ...*ir.Config) string {
	v := gatherVocab(cfgs...)
	var b strings.Builder
	writeSet := func(ss []string) {
		sorted := append([]string(nil), ss...)
		sort.Strings(sorted)
		prev := "\x00" // impossible atom: writes the first element always
		for _, s := range sorted {
			if s != prev {
				b.WriteString(s)
				b.WriteByte(0)
				prev = s
			}
		}
		b.WriteByte(1)
	}
	writeSet(v.literals)
	writeSet(v.regexes)
	writeSet(v.asRegexes)
	for _, m := range v.medVals {
		fmt.Fprintf(&b, "%d\x00", m)
	}
	b.WriteByte(1)
	for _, t := range v.tagVals {
		fmt.Fprintf(&b, "%d\x00", t)
	}
	return b.String()
}

// NewRouteEncodingInto is NewRouteEncoding recycling an existing factory:
// if f is non-nil it is Reset to the encoding's variable count and reused,
// so callers comparing many configuration pairs on one goroutine avoid
// re-allocating the arena and op cache per pair. Nodes from before the
// call are invalidated.
func NewRouteEncodingInto(f *bdd.Factory, cfgs ...*ir.Config) *RouteEncoding {
	v := gatherVocab(cfgs...)
	comms := community.NewUniverse(v.literals, v.regexes)

	asAtomSet := map[string]bool{}
	for _, r := range v.asRegexes {
		for _, e := range community.Exemplars(r, 8) {
			asAtomSet[e] = true
		}
	}
	asAtoms := make([]string, 0, len(asAtomSet)+1)
	for a := range asAtomSet {
		asAtoms = append(asAtoms, a)
	}
	sort.Strings(asAtoms)
	asAtoms = append(asAtoms, "<other>")

	medVals := v.medVals
	tagVals := v.tagVals

	e := &RouteEncoding{
		Comms:    comms,
		asAtoms:  asAtoms,
		medVals:  medVals,
		tagVals:  tagVals,
		lenRange: map[[2]uint8]bdd.Node{},
		regexps:  map[string]*community.Matcher{},

		prefixRanges: map[netaddr.PrefixRange]bdd.Node{},
		prefixLists:  map[*ir.PrefixList]bdd.Node{},
		nextHopLists: map[*ir.PrefixList]bdd.Node{},
		commLists:    map[*ir.CommunityList]bdd.Node{},
		asPathLists:  map[*ir.ASPathList]bdd.Node{},

		clauseSigs: map[*ir.RouteMapClause]Sig{},
	}
	e.sigWinA, e.sigWinB = chooseSigWindows(gatherSigEntries(cfgs...))
	n := 0
	alloc := func(width int) int {
		v := n
		n += width
		return v
	}
	pb := alloc(32)
	pl := alloc(6)
	nh := alloc(32)
	e.medVar0 = alloc(len(medVals))
	e.tagVar0 = alloc(len(tagVals))
	e.protoVar0 = alloc(len(protocolOrder))
	e.commVar0 = alloc(comms.Size())
	e.asVar0 = alloc(len(asAtoms))
	if f != nil {
		f.Reset(n)
		e.F = f
	} else {
		e.F = bdd.NewFactory(n)
	}
	e.prefixBits = bitVec{f: e.F, first: pb, width: 32}
	e.prefixLen = bitVec{f: e.F, first: pl, width: 6}
	e.nextHop = bitVec{f: e.F, first: nh, width: 32}
	e.PrefixUniverse = e.buildPrefixUniverse()
	e.WellFormed = e.buildWellFormed()
	return e
}

func sortedInt64s(set map[int64]bool) []int64 {
	out := make([]int64, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// NumVars returns the total variable count of the encoding.
func (e *RouteEncoding) NumVars() int { return e.F.NumVars() }

// buildWellFormed constructs the validity constraint described on
// RouteEncoding over the already built PrefixUniverse. Every part is
// built bottom-up, each step an Ite on one variable over parts
// already built, so a step adds one node and the construction leaves
// next to no garbage. The blocks are conjoined
// lowest-first for the same reason: each And copies the block above
// once onto the conjunction below it, where a top-down fold would copy
// the growing conjunction again at every step.
func (e *RouteEncoding) buildWellFormed() bdd.Node {
	f := e.F
	wf := oneHot(f, e.asVar0, len(e.asAtoms), bdd.False)                  // exactly one as-path atom
	wf = f.And(oneHot(f, e.protoVar0, len(protocolOrder), bdd.False), wf) // exactly one protocol
	wf = f.And(oneHot(f, e.tagVar0, len(e.tagVals), bdd.True), wf)        // at most one tag atom
	wf = f.And(oneHot(f, e.medVar0, len(e.medVals), bdd.True), wf)        // at most one MED atom
	return f.And(e.PrefixUniverse, wf)
}

// buildPrefixUniverse returns the valid (address, length) pairs: a
// length in 0..32 with every address bit at or past the length zero, so
// address bit i set forces length >= i+1. One pass over the bits from
// the last up keeps a row per forced minimum: once bits i..31 are
// placed, row[m] constrains them and the length given that a higher bit
// already forces length >= m. Only m <= i can still be forced by the
// bits above i, so rows past i are final and row[i+1] is what bit i
// leads to when set.
func (e *RouteEncoding) buildPrefixUniverse() bdd.Node {
	f := e.F
	var row [33]bdd.Node
	for m := range row {
		row[m] = e.prefixLen.rangeConst(uint64(m), 32)
	}
	for i := 31; i >= 0; i-- {
		bit := f.Var(e.prefixBits.first + i)
		for m := 0; m <= i; m++ {
			row[m] = f.Ite(bit, row[i+1], row[m])
		}
	}
	return row[0]
}

// oneHot constrains at most one of the n variables from first to be
// set, or exactly one when noneSet (the value with every variable clear)
// is False. It is a chain from the last variable up: none is "no
// variable past i is set", which is all that setting variable i leaves
// for the rest.
func oneHot(f *bdd.Factory, first, n int, noneSet bdd.Node) bdd.Node {
	none, out := bdd.True, noneSet
	for i := n - 1; i >= 0; i-- {
		out = f.Ite(f.Var(first+i), none, out)
		none = f.AndLit(first+i, false, none)
	}
	return out
}

// PrefixVars returns the variables carrying the advertised prefix (bits
// and length) — the projection HeaderLocalize keeps.
func (e *RouteEncoding) PrefixVars() []int {
	return append(e.prefixBits.vars(), e.prefixLen.vars()...)
}

// NonPrefixVars returns all variables other than the prefix bits/length.
func (e *RouteEncoding) NonPrefixVars() []int {
	keep := map[int]bool{}
	for _, v := range e.PrefixVars() {
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

// lenIn returns the BDD for "prefix length in [lo,hi]".
func (e *RouteEncoding) lenIn(lo, hi uint8) bdd.Node {
	key := [2]uint8{lo, hi}
	if n, ok := e.lenRange[key]; ok {
		e.memo.RangeHits++
		return n
	}
	e.memo.RangeMisses++
	n := e.prefixLen.rangeConst(uint64(lo), uint64(hi))
	e.lenRange[key] = n
	return n
}

// PrefixRangeBDD returns the set of routes whose advertised prefix is a
// member of the range, memoized by range value.
func (e *RouteEncoding) PrefixRangeBDD(r netaddr.PrefixRange) bdd.Node {
	if r.IsEmpty() {
		return bdd.False
	}
	if n, ok := e.prefixRanges[r]; ok {
		e.memo.RangeHits++
		return n
	}
	e.memo.RangeMisses++
	bits := e.prefixBits.prefixMatch(uint64(r.Prefix.Addr), int(r.Prefix.Len))
	n := e.F.And(bits, e.lenIn(r.Lo, r.Hi))
	e.prefixRanges[r] = n
	return n
}

// PrefixBDD returns the set of routes advertising exactly prefix p. All
// 32 address bits are constrained (the canonical zero padding beyond the
// prefix length included), matching the membership semantics of
// netaddr.PrefixRange.
func (e *RouteEncoding) PrefixBDD(p netaddr.Prefix) bdd.Node {
	return e.F.And(
		e.prefixBits.eqConst(uint64(p.Addr)),
		e.prefixLen.eqConst(uint64(p.Len)),
	)
}

// CommunityAtomVar returns the BDD variable for "route carries community
// atom s", if s is in the universe.
func (e *RouteEncoding) CommunityAtomVar(s string) (bdd.Node, bool) {
	i, ok := e.Comms.Index(s)
	if !ok {
		return bdd.False, false
	}
	return e.F.Var(e.commVar0 + i), true
}

func (e *RouteEncoding) matcherFor(pattern string) *community.Matcher {
	if m, ok := e.regexps[pattern]; ok {
		return m
	}
	m, err := community.Compile(pattern)
	if err != nil {
		m = community.CompileLiteral(pattern) // degrade to literal match
	}
	e.regexps[pattern] = m
	return m
}

// communityMatcherBDD returns the set of routes carrying at least one
// community matched by m.
func (e *RouteEncoding) communityMatcherBDD(m ir.CommunityMatcher) bdd.Node {
	if m.Regex == "" {
		n, _ := e.CommunityAtomVar(m.Literal)
		return n
	}
	out := bdd.False
	for _, i := range e.Comms.MatchSet(e.matcherFor(m.Regex)) {
		out = e.F.Or(out, e.F.Var(e.commVar0+i))
	}
	return out
}

// communityListBDD folds a community list's first-match-wins entries,
// memoized by list identity.
func (e *RouteEncoding) communityListBDD(l *ir.CommunityList) bdd.Node {
	if n, ok := e.commLists[l]; ok {
		e.memo.ListHits++
		return n
	}
	e.memo.ListMisses++
	out := bdd.False // no entry matches ⇒ the list does not permit
	for i := len(l.Entries) - 1; i >= 0; i-- {
		entry := l.Entries[i]
		match := bdd.True
		if len(entry.Conjuncts) == 0 {
			match = bdd.False
		}
		for _, c := range entry.Conjuncts {
			match = e.F.And(match, e.communityMatcherBDD(c))
		}
		verdict := bdd.False
		if entry.Action == ir.Permit {
			verdict = bdd.True
		}
		out = e.F.Ite(match, verdict, out)
	}
	e.commLists[l] = out
	return out
}

// prefixListBDD folds a prefix list's first-match-wins entries, memoized
// by list identity.
func (e *RouteEncoding) prefixListBDD(l *ir.PrefixList) bdd.Node {
	if n, ok := e.prefixLists[l]; ok {
		e.memo.ListHits++
		return n
	}
	e.memo.ListMisses++
	out := bdd.False
	for i := len(l.Entries) - 1; i >= 0; i-- {
		entry := l.Entries[i]
		verdict := bdd.False
		if entry.Action == ir.Permit {
			verdict = bdd.True
		}
		out = e.F.Ite(e.PrefixRangeBDD(entry.Range), verdict, out)
	}
	e.prefixLists[l] = out
	return out
}

// nextHopListBDD folds a prefix list applied to the route's next hop
// (a /32 address), memoized by list identity.
func (e *RouteEncoding) nextHopListBDD(l *ir.PrefixList) bdd.Node {
	if n, ok := e.nextHopLists[l]; ok {
		e.memo.ListHits++
		return n
	}
	e.memo.ListMisses++
	out := bdd.False
	for i := len(l.Entries) - 1; i >= 0; i-- {
		entry := l.Entries[i]
		r := entry.Range
		var match bdd.Node = bdd.False
		if !r.IsEmpty() && r.Lo <= 32 && 32 <= r.Hi {
			match = e.nextHop.prefixMatch(uint64(r.Prefix.Addr), int(r.Prefix.Len))
		}
		verdict := bdd.False
		if entry.Action == ir.Permit {
			verdict = bdd.True
		}
		out = e.F.Ite(match, verdict, out)
	}
	e.nextHopLists[l] = out
	return out
}

// asPathListBDD folds an as-path list evaluated over the finite as-path
// atom universe, memoized by list identity. The "<other>" atom matches no
// regex (a conservative under-approximation documented in DESIGN.md).
func (e *RouteEncoding) asPathListBDD(l *ir.ASPathList) bdd.Node {
	if n, ok := e.asPathLists[l]; ok {
		e.memo.ListHits++
		return n
	}
	e.memo.ListMisses++
	out := bdd.False
	for i := len(l.Entries) - 1; i >= 0; i-- {
		entry := l.Entries[i]
		m := e.matcherFor(entry.Regex)
		match := bdd.False
		for j, atom := range e.asAtoms {
			if j == len(e.asAtoms)-1 {
				break // <other>
			}
			if m.Matches(atom) {
				match = e.F.Or(match, e.F.Var(e.asVar0+j))
			}
		}
		verdict := bdd.False
		if entry.Action == ir.Permit {
			verdict = bdd.True
		}
		out = e.F.Ite(match, verdict, out)
	}
	e.asPathLists[l] = out
	return out
}

// protoVar returns the one-hot variable of a protocol.
func (e *RouteEncoding) protoVar(p ir.Protocol) bdd.Node {
	for i, q := range protocolOrder {
		if q == p {
			return e.F.Var(e.protoVar0 + i)
		}
	}
	return bdd.False
}

// medAtomBDD returns the variable for "MED == v" (False if v is not an
// atom, which cannot happen for values gathered from the configs).
func (e *RouteEncoding) medAtomBDD(v int64) bdd.Node {
	for i, m := range e.medVals {
		if m == v {
			return e.F.Var(e.medVar0 + i)
		}
	}
	return bdd.False
}

func (e *RouteEncoding) tagAtomBDD(v int64) bdd.Node {
	for i, m := range e.tagVals {
		if m == v {
			return e.F.Var(e.tagVar0 + i)
		}
	}
	return bdd.False
}

// MatchBDD compiles a single route-map match condition under the named
// lists of cfg.
func (e *RouteEncoding) MatchBDD(cfg *ir.Config, m ir.Match) bdd.Node {
	switch m := m.(type) {
	case ir.MatchPrefixList:
		out := bdd.False
		for _, name := range m.Lists {
			if pl := cfg.PrefixLists[name]; pl != nil {
				out = e.F.Or(out, e.prefixListBDD(pl))
			}
		}
		return out
	case ir.MatchPrefixListFilter:
		pl := cfg.PrefixLists[m.List]
		if pl == nil {
			return bdd.False
		}
		out := bdd.False
		for i := len(pl.Entries) - 1; i >= 0; i-- {
			entry := pl.Entries[i]
			verdict := bdd.False
			if entry.Action == ir.Permit {
				verdict = bdd.True
			}
			rg := ir.ApplyRangeModifier(entry.Range, m.Modifier)
			out = e.F.Ite(e.PrefixRangeBDD(rg), verdict, out)
		}
		return out
	case ir.MatchPrefixRanges:
		out := bdd.False
		for _, r := range m.Ranges {
			out = e.F.Or(out, e.PrefixRangeBDD(r))
		}
		return out
	case ir.MatchCommunity:
		out := bdd.False
		for _, name := range m.Lists {
			if cl := cfg.CommunityLists[name]; cl != nil {
				out = e.F.Or(out, e.communityListBDD(cl))
			}
		}
		return out
	case ir.MatchASPath:
		out := bdd.False
		for _, name := range m.Lists {
			if al := cfg.ASPathLists[name]; al != nil {
				out = e.F.Or(out, e.asPathListBDD(al))
			}
		}
		return out
	case ir.MatchMED:
		return e.medAtomBDD(m.Value)
	case ir.MatchTag:
		return e.tagAtomBDD(m.Value)
	case ir.MatchProtocol:
		out := bdd.False
		for _, p := range m.Protocols {
			out = e.F.Or(out, e.protoVar(p))
		}
		return out
	case ir.MatchNextHop:
		out := bdd.False
		for _, name := range m.Lists {
			if pl := cfg.PrefixLists[name]; pl != nil {
				out = e.F.Or(out, e.nextHopListBDD(pl))
			}
		}
		return out
	}
	return bdd.False
}

// ClauseGuardBDD compiles the conjunction of a clause's match conditions.
func (e *RouteEncoding) ClauseGuardBDD(cfg *ir.Config, cl *ir.RouteMapClause) bdd.Node {
	out := bdd.True
	for _, m := range cl.Matches {
		out = e.F.And(out, e.MatchBDD(cfg, m))
	}
	return out
}

// RouteCube encodes a concrete route as a total assignment cube, used to
// cross-check the symbolic encoding against concrete evaluation.
func (e *RouteEncoding) RouteCube(r *ir.Route) bdd.Node {
	f := e.F
	n := e.prefixBits.eqConst(uint64(r.Prefix.Addr))
	n = f.And(n, e.prefixLen.eqConst(uint64(r.Prefix.Len)))
	n = f.And(n, e.nextHop.eqConst(uint64(r.NextHop)))
	for i, atom := range e.Comms.Atoms() {
		n = f.And(n, f.Lit(e.commVar0+i, r.Communities[atom]))
	}
	// as-path: exact atom if in the universe, else <other>.
	path := r.ASPathString()
	asIdx := len(e.asAtoms) - 1
	for i, atom := range e.asAtoms[:len(e.asAtoms)-1] {
		if atom == path {
			asIdx = i
			break
		}
	}
	for i := range e.asAtoms {
		n = f.And(n, f.Lit(e.asVar0+i, i == asIdx))
	}
	for i, v := range e.medVals {
		n = f.And(n, f.Lit(e.medVar0+i, r.MED == v))
	}
	for i, v := range e.tagVals {
		n = f.And(n, f.Lit(e.tagVar0+i, r.Tag == v))
	}
	for i, p := range protocolOrder {
		n = f.And(n, f.Lit(e.protoVar0+i, r.Protocol == p))
	}
	return n
}

// RouteFromAssignment reconstructs a concrete example route from a
// (possibly partial) satisfying assignment; don't-care fields take
// defaults. Used to render counterexamples and single-example fields.
func (e *RouteEncoding) RouteFromAssignment(a bdd.Assignment) *ir.Route {
	addr := netaddr.Addr(e.prefixBits.valueOf(a))
	length := e.prefixLen.valueOf(a)
	if length > 32 {
		length = 32
	}
	r := ir.NewRoute(netaddr.NewPrefix(addr, uint8(length)))
	r.NextHop = netaddr.Addr(e.nextHop.valueOf(a))
	for i, atom := range e.Comms.Atoms() {
		if a[e.commVar0+i] == 1 {
			r.Communities[atom] = true
		}
	}
	for i, v := range e.medVals {
		if a[e.medVar0+i] == 1 {
			r.MED = v
		}
	}
	for i, v := range e.tagVals {
		if a[e.tagVar0+i] == 1 {
			r.Tag = v
		}
	}
	r.Protocol = ir.ProtoBGP
	for i, p := range protocolOrder {
		if a[e.protoVar0+i] == 1 {
			r.Protocol = p
		}
	}
	for i, atom := range e.asAtoms[:len(e.asAtoms)-1] {
		if a[e.asVar0+i] == 1 {
			r.ASPath = parseASPath(atom)
		}
	}
	return r
}

// MEDValues returns the MED constants the encoding atomizes (sorted).
// Values outside this set are indistinguishable to the symbolic engine:
// they satisfy no MED atom.
func (e *RouteEncoding) MEDValues() []int64 { return e.medVals }

// TagValues returns the atomized tag constants (sorted).
func (e *RouteEncoding) TagValues() []int64 { return e.tagVals }

// ASPathAtoms returns the finite as-path universe, excluding the
// closing "<other>" atom — the exact path strings the symbolic encoding
// distinguishes. Samplers drawing concrete routes should stay inside
// this set (or use the empty path) so the concrete regex semantics and
// the atomized symbolic semantics coincide.
func (e *RouteEncoding) ASPathAtoms() []string {
	return e.asAtoms[:len(e.asAtoms)-1]
}

// FreshMED returns a MED value satisfying no atom of the encoding — the
// concretization of "MED is none of the configuration's constants".
func (e *RouteEncoding) FreshMED() int64 { return freshValue(e.medVals) }

// FreshTag returns a tag value satisfying no atom of the encoding.
func (e *RouteEncoding) FreshTag() int64 { return freshValue(e.tagVals) }

func freshValue(vals []int64) int64 {
	v := int64(0)
	for _, x := range vals {
		if x >= v {
			v = x + 1
		}
	}
	return v
}

// WitnessRoute extracts one concrete route guaranteed to lie inside the
// given non-empty route set (set must be a subset of WellFormed, as every
// SemanticDiff region is). It improves on AnySat + RouteFromAssignment in
// two ways that matter for soundness checking:
//
//   - MED/tag atoms all false or unconstrained concretize to a fresh
//     value outside the atom vocabulary instead of a default that may
//     collide with a forced-false atom;
//   - assignments selecting the "<other>" as-path atom are avoided when
//     any witness with a real atom (or no as-path constraint) exists.
//
// The boolean result reports exactness: false means every witness in the
// set selects "<other>", whose concretization (a synthesized path outside
// the atom universe) is only faithful when no as-path regex of the
// configurations matches the synthesized path — callers should treat such
// witnesses as advisory. A nil route means the set is empty.
func (e *RouteEncoding) WitnessRoute(set bdd.Node) (*ir.Route, bool) {
	if set == bdd.False {
		return nil, false
	}
	n := set
	if len(e.asAtoms) > 1 {
		// Prefer witnesses with a real as-path atom; fall back to the
		// whole set when the region forces "<other>".
		otherVar := e.asVar0 + len(e.asAtoms) - 1
		if m := e.F.And(set, e.F.NVar(otherVar)); m != bdd.False {
			n = m
		}
	}
	return e.ExactRoute(e.F.AnySat(n))
}

// ExactRoute concretizes a satisfying assignment (total or partial) into
// a route guaranteed to re-enter the assignment's constraints, repairing
// the optimistic defaults of RouteFromAssignment: MED/tag blocks with no
// atom selected take a fresh value outside the vocabulary (exact,
// because the concrete matchers only compare vocabulary constants). The
// boolean is false when the assignment selects the "<other>" as-path
// atom, which has no faithful concrete as-path; the returned route then
// carries a synthesized path and is advisory only. (When the
// configurations define no as-path regexes at all, "<other>" covers
// every as-path vacuously and the empty path is an exact
// concretization.)
func (e *RouteEncoding) ExactRoute(a bdd.Assignment) (*ir.Route, bool) {
	r := e.RouteFromAssignment(a)
	if !hasOne(a, e.medVar0, len(e.medVals)) {
		r.MED = e.FreshMED()
	}
	if !hasOne(a, e.tagVar0, len(e.tagVals)) {
		r.Tag = e.FreshTag()
	}
	if otherVar := e.asVar0 + len(e.asAtoms) - 1; len(e.asAtoms) > 1 && a[otherVar] == 1 {
		r.ASPath = e.syntheticOtherPath()
		return r, false
	}
	return r, true
}

// hasOne reports whether some variable of the block is assigned true.
func hasOne(a bdd.Assignment, first, n int) bool {
	for i := 0; i < n; i++ {
		if a[first+i] == 1 {
			return true
		}
	}
	return false
}

// syntheticOtherPath builds an as-path string not present in the atom
// universe and returns its parsed form.
func (e *RouteEncoding) syntheticOtherPath() []int64 {
	path := "64999"
	for {
		found := false
		for _, atom := range e.asAtoms[:len(e.asAtoms)-1] {
			if atom == path {
				found = true
				break
			}
		}
		if !found {
			return parseASPath(path)
		}
		path += " 64999"
	}
}

func parseASPath(s string) []int64 {
	var out []int64
	cur := int64(-1)
	for i := 0; i <= len(s); i++ {
		if i < len(s) && s[i] >= '0' && s[i] <= '9' {
			if cur < 0 {
				cur = 0
			}
			cur = cur*10 + int64(s[i]-'0')
			continue
		}
		if cur >= 0 {
			out = append(out, cur)
			cur = -1
		}
	}
	return out
}

// CommunityVars returns the BDD variables carrying the community atoms,
// in atom order — the projection for exhaustive community localization
// (the extension discussed in the paper's §4).
func (e *RouteEncoding) CommunityVars() []int {
	out := make([]int, e.Comms.Size())
	for i := range out {
		out[i] = e.commVar0 + i
	}
	return out
}

// NonCommunityVars returns every variable outside the community block.
func (e *RouteEncoding) NonCommunityVars() []int {
	var out []int
	for v := 0; v < e.F.NumVars(); v++ {
		if v < e.commVar0 || v >= e.commVar0+e.Comms.Size() {
			out = append(out, v)
		}
	}
	return out
}

// CommunityCube splits a (projected) assignment's community block into
// the atoms required present and required absent; unconstrained atoms are
// omitted.
func (e *RouteEncoding) CommunityCube(a bdd.Assignment) (present, absent []string) {
	for i, atom := range e.Comms.Atoms() {
		switch a[e.commVar0+i] {
		case 1:
			present = append(present, atom)
		case 0:
			absent = append(absent, atom)
		}
	}
	return present, absent
}

// ExampleCommunities renders the community content of an assignment for
// presentation: the atoms set to true, and a count of additional
// constrained-but-false atoms.
func (e *RouteEncoding) ExampleCommunities(a bdd.Assignment) []string {
	var out []string
	for i, atom := range e.Comms.Atoms() {
		if a[e.commVar0+i] == 1 {
			out = append(out, atom)
		}
	}
	return out
}

func (e *RouteEncoding) String() string {
	return fmt.Sprintf("RouteEncoding{vars=%d comms=%d aspaths=%d meds=%d tags=%d}",
		e.F.NumVars(), e.Comms.Size(), len(e.asAtoms), len(e.medVals), len(e.tagVals))
}
