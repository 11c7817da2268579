// Package fleet implements Campion's fleet-scale audit layer: semantic
// content-addressing of whole device configurations, equivalence-class
// clustering, and a persistent on-disk cache of compiled-policy
// fingerprints and finished pair reports.
//
// The core primitive is DeviceHash: a canonical digest of everything
// about one configuration that can influence a diff report against any
// counterpart — except the device's hostname and file name, which the
// expansion layer substitutes when a class representative's report is
// replayed for another member pair. Two devices with equal hashes are
// interchangeable in any comparison: Diff(A, C) and Diff(B, C) produce
// byte-identical reports modulo hostname and span-file substitution.
//
// The hash mixes two kinds of material:
//
//   - Semantic: prefix-space route-map matches and ACL lines are
//     compiled to BDDs and the reduced DAG is hashed (stable DFS over
//     local node IDs per root). BDDs are canonical per variable order,
//     and the prefix/next-hop/packet dimensions occupy fixed variable
//     positions independent of any configuration's vocabulary, so DAG
//     equality here is a sound semantic equality test that survives
//     being placed next to any third configuration.
//   - Intensional: everything whose pair-level encoding depends on the
//     counterpart's vocabulary (community, as-path, MED, tag atoms) or
//     that reaches the report as text (clause spans, names, structural
//     fields) is serialized from the IR directly. Vocabulary-sensitive
//     dimensions cannot be BDD-hashed per device: equality under one
//     atom set does not imply equality once a third config's regexes
//     atomize the space more finely.
//
// Chains that fail to compile (node-budget abort or a parser corner that
// panics the encoder) fall back to a fully intensional hash, marked with
// a distinct mode byte so a fallback hash never collides with a semantic
// one.
package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"sort"
	"sync"

	"repro/internal/bdd"
	"repro/internal/headerloc"
	"repro/internal/ir"
	"repro/internal/netaddr"
	"repro/internal/symbolic"
)

// hashVersion is mixed into every device hash; bump it whenever the
// serialization below changes so stale persisted hashes self-invalidate.
const hashVersion = "campion-device-hash-v1"

// hashNodeBudget bounds the BDD nodes the hashing encodings may hold
// before a compile aborts into the intensional fallback. Hashing only
// compiles individual prefix lists and ACL lines — never products — so
// ordinary configurations stay far below this. A var so tests can force
// the fallback path.
var hashNodeBudget = 1 << 22

// resetNodeThreshold is the arena size past which the shared hashing
// factories are rebuilt. The per-encoding memo tables key on IR pointers,
// so nothing is reused across devices anyway; rebuilding keeps a long
// fleet sweep's memory flat.
const resetNodeThreshold = 1 << 20

// Hasher computes device hashes, amortizing its BDD factories across
// calls. It is single-goroutine state: one Hasher per worker.
type Hasher struct {
	renc *symbolic.RouteEncoding
	penc *symbolic.PacketEncoding
}

// hasherPool recycles Hashers across audits. Building one (two arenas
// and the route encoding's WellFormed constraint) costs about as much as
// hashing a whole device, and a daemon write would otherwise pay it once
// per hashing worker.
var hasherPool sync.Pool

// GetHasher returns a pooled Hasher, or a fresh one on a cold pool. Hand
// it back with PutHasher when done; a pooled Hasher hashes exactly as a
// fresh one does.
func GetHasher() *Hasher {
	if h, ok := hasherPool.Get().(*Hasher); ok {
		return h
	}
	return NewHasher()
}

// PutHasher returns h to the pool; the caller must not use it again.
func PutHasher(h *Hasher) {
	if h != nil {
		hasherPool.Put(h)
	}
}

// NewHasher returns a Hasher with fresh encodings. The route encoding is
// built with no configurations: only the vocabulary-independent prefix,
// length, and next-hop variables are ever compiled on it, and those
// occupy fixed positions regardless of vocabulary, so every Hasher
// produces identical hashes.
func NewHasher() *Hasher {
	h := &Hasher{}
	h.rebuild()
	return h
}

func (h *Hasher) rebuild() {
	h.renc = symbolic.NewRouteEncoding()
	h.renc.F.SetInterrupt(hashNodeBudget, func() error { return nil })
	h.penc = symbolic.NewPacketEncoding()
	h.penc.F.SetInterrupt(hashNodeBudget, func() error { return nil })
}

// DeviceHash is a one-shot convenience over a pooled Hasher.
func DeviceHash(cfg *ir.Config) (string, bool) {
	h := GetHasher()
	defer PutHasher(h)
	return h.DeviceHash(cfg)
}

// DeviceHash returns the semantic content-address of cfg and whether the
// intensional fallback was used. Hostname and every TextSpan.File are
// excluded — they are the only per-device identity the expansion layer
// rewrites — and everything else that can reach a report is pinned.
func (h *Hasher) DeviceHash(cfg *ir.Config) (string, bool) {
	if h.renc.F.Stats().Nodes > resetNodeThreshold {
		h.rebuild()
	}
	// The encodings' memo tables key on cfg's IR pointers, which no other
	// device shares: empty them once cfg is hashed, so neither a worker
	// nor the pool keeps a hashed configuration alive.
	defer func() {
		h.renc.ForgetConfigs()
		h.penc.ForgetLines()
	}()
	if sum, ok := h.tryHash(cfg, true); ok {
		return sum, false
	}
	// A compile aborted mid-stream; the factories may hold garbage from
	// the unwound computation, so rebuild before anyone hashes on them
	// again. The fallback never compiles, so it cannot abort.
	h.rebuild()
	sum, _ := h.tryHash(cfg, false)
	return sum, true
}

// tryHash runs one full serialization pass. With semantic=true a
// node-budget abort (or any encoder panic) is recovered and reported as
// !ok; intensional passes cannot fail.
func (h *Hasher) tryHash(cfg *ir.Config, semantic bool) (sum string, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			if semantic {
				sum, ok = "", false
				return
			}
			panic(r)
		}
	}()
	w := newHW()
	w.str(hashVersion)
	if semantic {
		w.byte('S')
	} else {
		w.byte('I')
	}
	// The counterpart-facing vocabulary this device contributes: every
	// community literal/regex, as-path regex, and MED/tag constant it
	// would add to a pair encoding.
	hashVocabulary(w, cfg)
	h.hashRouteMaps(w, cfg, semantic)
	h.hashACLs(w, cfg, semantic)
	hashStructural(w, cfg)
	return w.sum(), true
}

// hashVocabulary pins the vocabularies a device contributes to a pair's
// route-map comparison beyond its policies' own text, and its dialect.
func hashVocabulary(w *hw, cfg *ir.Config) {
	w.str(symbolic.VocabFingerprint(cfg))
	// The ddNF presentation vocabulary: HeaderLocalize's output terms are
	// built over the prefix ranges mentioned by BOTH configs of a pair,
	// so the multiset this device contributes is report-affecting even
	// when the match semantics are unchanged.
	ranges := headerloc.ConfigPrefixRanges(cfg)
	sort.Slice(ranges, func(i, j int) bool { return comparePrefixRange(ranges[i], ranges[j]) < 0 })
	w.u64(uint64(len(ranges)))
	for _, r := range ranges {
		w.prefixRange(r)
	}
	w.u64(uint64(cfg.Vendor))
}

// componentVersion is mixed into every component digest; bump it
// whenever the serialization below changes.
const componentVersion = "campion-component-digest-v1"

// ComponentDigests key one side of the component memo (Store's
// GetComponent): for each semantic component, a digest of exactly the IR
// that component reads of this configuration. Two configurations with
// equal digests yield the same component result against any counterpart,
// modulo the span files RespanReport rewrites.
type ComponentDigests struct {
	// RouteMaps covers the route-map component: the vocabularies
	// (hashVocabulary), every route map with its clause spans and the
	// contents of the lists it references, and the policy bindings
	// core.MatchPolicies pairs up.
	RouteMaps string
	// ACLs covers the ACL component: every ACL's name, lines and spans.
	ACLs string
}

// Digests computes cfg's component digests. They are intensional, built
// from DeviceHash's fallback serializers, so they compile no BDD: two
// policies that match the same routes but are written differently get
// different digests, which costs a recomputation, never a wrong report.
// Each digest records whether cfg.File is empty, because RespanReport
// keeps an empty span file empty: a result computed for a configuration
// with no file name must not be served to one with a name.
func Digests(cfg *ir.Config) ComponentDigests {
	var h Hasher // the fallback serializers compile nothing, so need no encodings
	start := func(component string) *hw {
		w := newHW()
		w.str(componentVersion)
		w.str(component)
		w.b(cfg.File == "")
		return w
	}
	w := start("route-maps")
	hashVocabulary(w, cfg)
	h.hashRouteMaps(w, cfg, false)
	hashPolicyBindings(w, cfg)
	rm := w.sum()
	w = start("acls")
	h.hashACLs(w, cfg, false)
	return ComponentDigests{RouteMaps: rm, ACLs: w.sum()}
}

// hashPolicyBindings pins what core.MatchPolicies reads to pair up
// policies: BGP and OSPF presence, each BGP neighbor address with its
// import and export chains, and each redistribution's source protocol
// and route map.
func hashPolicyBindings(w *hw, cfg *ir.Config) {
	redistributions := func(rs []ir.Redistribution) {
		w.u64(uint64(len(rs)))
		for _, r := range rs {
			w.u64(uint64(r.From))
			w.str(r.RouteMap)
		}
	}
	w.b(cfg.BGP != nil)
	if b := cfg.BGP; b != nil {
		addrs := b.NeighborAddrs()
		w.u64(uint64(len(addrs)))
		for _, a := range addrs {
			n := b.Neighbors[a]
			w.str(a)
			w.strs(n.ImportPolicies)
			w.strs(n.ExportPolicies)
		}
		redistributions(b.Redistribute)
	}
	w.b(cfg.OSPF != nil)
	if o := cfg.OSPF; o != nil {
		redistributions(o.Redistribute)
	}
}

func (h *Hasher) hashRouteMaps(w *hw, cfg *ir.Config, semantic bool) {
	names := sortedKeys(cfg.RouteMaps)
	w.u64(uint64(len(names)))
	for _, name := range names {
		rm := cfg.RouteMaps[name]
		w.str(name)
		w.u64(uint64(rm.DefaultAction))
		w.span(rm.Span)
		w.u64(uint64(len(rm.Clauses)))
		for _, cl := range rm.Clauses {
			w.u64(uint64(cl.Seq))
			w.str(cl.Name)
			w.u64(uint64(cl.Action))
			w.span(cl.Span)
			w.u64(uint64(len(cl.Matches)))
			for _, m := range cl.Matches {
				h.hashMatch(w, cfg, m, semantic)
			}
			w.u64(uint64(len(cl.Sets)))
			for _, s := range cl.Sets {
				hashSet(w, cfg, s)
			}
		}
	}
}

// hashMatch pins one match condition. Prefix-space matches are hashed
// semantically (their BDDs live entirely in the fixed prefix/next-hop
// variable block, so DAG equality is stable under vocabulary extension);
// vocabulary-sensitive matches are pinned intensionally, inlining the
// referenced list contents so a list edit changes the hash even though
// the clause text did not.
func (h *Hasher) hashMatch(w *hw, cfg *ir.Config, m ir.Match, semantic bool) {
	switch m := m.(type) {
	case ir.MatchPrefixList, ir.MatchPrefixRanges, ir.MatchPrefixListFilter, ir.MatchNextHop:
		w.str(m.String())
		if semantic {
			w.byte('B')
			writeDAG(w, h.renc.F, h.renc.MatchBDD(cfg, m))
			return
		}
		w.byte('i')
		switch m := m.(type) {
		case ir.MatchPrefixList:
			for _, name := range m.Lists {
				hashPrefixList(w, cfg.PrefixLists[name])
			}
		case ir.MatchPrefixListFilter:
			hashPrefixList(w, cfg.PrefixLists[m.List])
		case ir.MatchNextHop:
			for _, name := range m.Lists {
				hashPrefixList(w, cfg.PrefixLists[name])
			}
		case ir.MatchPrefixRanges:
			for _, r := range m.Ranges {
				w.prefixRange(r)
			}
		}
	case ir.MatchCommunity:
		w.str(m.String())
		for _, name := range m.Lists {
			hashCommunityList(w, cfg.CommunityLists[name])
		}
	case ir.MatchASPath:
		w.str(m.String())
		for _, name := range m.Lists {
			hashASPathList(w, cfg.ASPathLists[name])
		}
	default:
		// MED, tag, protocol: the match value is the whole content.
		w.str(m.String())
	}
}

// hashSet pins one set action. DeleteCommunity's behavior depends on the
// referenced community list, not just its name, so the list contents are
// inlined.
func hashSet(w *hw, cfg *ir.Config, s ir.SetAction) {
	w.str(s.String())
	if del, ok := s.(ir.DeleteCommunity); ok {
		hashCommunityList(w, cfg.CommunityLists[del.List])
	}
}

func hashPrefixList(w *hw, l *ir.PrefixList) {
	if l == nil {
		w.byte(0)
		return
	}
	w.u64(uint64(len(l.Entries)))
	for _, e := range l.Entries {
		w.u64(uint64(e.Action))
		w.prefixRange(e.Range)
	}
}

func hashCommunityList(w *hw, l *ir.CommunityList) {
	if l == nil {
		w.byte(0)
		return
	}
	w.u64(uint64(len(l.Entries)))
	for _, e := range l.Entries {
		w.u64(uint64(e.Action))
		w.u64(uint64(len(e.Conjuncts)))
		for _, c := range e.Conjuncts {
			w.str(c.Literal)
			w.str(c.Regex)
		}
	}
}

func hashASPathList(w *hw, l *ir.ASPathList) {
	if l == nil {
		w.byte(0)
		return
	}
	w.u64(uint64(len(l.Entries)))
	for _, e := range l.Entries {
		w.u64(uint64(e.Action))
		w.str(e.Regex)
	}
}

func (h *Hasher) hashACLs(w *hw, cfg *ir.Config, semantic bool) {
	names := sortedKeys(cfg.ACLs)
	w.u64(uint64(len(names)))
	for _, name := range names {
		acl := cfg.ACLs[name]
		w.str(name)
		w.span(acl.Span)
		w.u64(uint64(len(acl.Lines)))
		for _, l := range acl.Lines {
			w.u64(uint64(l.Seq))
			w.u64(uint64(l.Action))
			w.span(l.Span)
			if semantic {
				// The packet encoding has no vocabulary at all — a fixed
				// 5-tuple+flags variable layout — so a line's BDD is
				// canonical across every device.
				w.byte('B')
				writeDAG(w, h.penc.F, h.penc.LineBDD(l))
				continue
			}
			w.byte('i')
			w.str(l.Protocol.String())
			w.u64(uint64(len(l.Src)))
			for _, wc := range l.Src {
				w.u64(uint64(wc.Addr))
				w.u64(uint64(wc.Mask))
			}
			w.u64(uint64(len(l.Dst)))
			for _, wc := range l.Dst {
				w.u64(uint64(wc.Addr))
				w.u64(uint64(wc.Mask))
			}
			w.portRanges(l.SrcPorts)
			w.portRanges(l.DstPorts)
			w.b(l.Established)
			w.i64(int64(l.ICMPType))
		}
	}
}

// hashStructural pins everything StructuralDiff (and policy matching)
// reads: interfaces, static routes, BGP, OSPF, and admin distances —
// excluding Hostname and span files.
func hashStructural(w *hw, cfg *ir.Config) {
	w.u64(uint64(len(cfg.Interfaces)))
	for _, fi := range cfg.Interfaces {
		w.str(fi.Name)
		w.u64(uint64(fi.Address))
		w.prefix(fi.Subnet)
		w.b(fi.HasAddress)
		w.str(fi.Description)
		w.b(fi.Shutdown)
		w.str(fi.ACLIn)
		w.str(fi.ACLOut)
		w.i64(int64(fi.OSPFCost))
		w.i64(fi.OSPFArea)
		w.b(fi.OSPFPassive)
		w.b(fi.OSPFEnabled)
		w.span(fi.Span)
	}
	w.u64(uint64(len(cfg.StaticRoutes)))
	for _, r := range cfg.StaticRoutes {
		w.prefix(r.Prefix)
		w.u64(uint64(r.NextHop))
		w.b(r.HasNextHop)
		w.str(r.Interface)
		w.i64(int64(r.AdminDistance))
		w.i64(r.Tag)
		w.b(r.HasTag)
		w.span(r.Span)
	}
	w.b(cfg.BGP != nil)
	if b := cfg.BGP; b != nil {
		w.i64(b.ASN)
		w.u64(uint64(b.RouterID))
		w.span(b.Span)
		w.u64(uint64(len(b.Networks)))
		for _, p := range b.Networks {
			w.prefix(p)
		}
		hashRedistributions(w, b.Redistribute)
		addrs := b.NeighborAddrs()
		w.u64(uint64(len(addrs)))
		for _, a := range addrs {
			n := b.Neighbors[a]
			w.str(a)
			w.u64(uint64(n.Addr))
			w.i64(n.RemoteAS)
			w.str(n.Description)
			w.strs(n.ImportPolicies)
			w.strs(n.ExportPolicies)
			w.b(n.RouteReflectorClient)
			w.b(n.SendCommunity)
			w.b(n.NextHopSelf)
			w.b(n.EBGPMultihop)
			w.b(n.Shutdown)
			w.i64(n.LocalAS)
			w.i64(n.Weight)
			w.span(n.Span)
		}
	}
	w.b(cfg.OSPF != nil)
	if o := cfg.OSPF; o != nil {
		w.i64(int64(o.ProcessID))
		w.u64(uint64(o.RouterID))
		w.span(o.Span)
		hashRedistributions(w, o.Redistribute)
		names := o.InterfaceNames()
		w.u64(uint64(len(names)))
		for _, name := range names {
			oi := o.Interfaces[name]
			w.str(name)
			w.i64(int64(oi.Cost))
			w.i64(oi.Area)
			w.b(oi.Passive)
			w.i64(int64(oi.HelloInterval))
			w.i64(int64(oi.DeadInterval))
			w.str(oi.NetworkType)
			w.prefix(oi.Subnet)
			w.span(oi.Span)
		}
	}
	protos := make([]int, 0, len(cfg.AdminDistances))
	for p := range cfg.AdminDistances {
		protos = append(protos, int(p))
	}
	sort.Ints(protos)
	w.u64(uint64(len(protos)))
	for _, p := range protos {
		w.u64(uint64(p))
		w.i64(int64(cfg.AdminDistances[ir.Protocol(p)]))
		w.b(cfg.ExplicitDistances[ir.Protocol(p)])
	}
	explicit := 0
	for _, v := range cfg.ExplicitDistances {
		if v {
			explicit++
		}
	}
	w.u64(uint64(explicit))
	w.u64(uint64(len(cfg.Unrecognized)))
	for _, s := range cfg.Unrecognized {
		w.span(s)
	}
}

func hashRedistributions(w *hw, rs []ir.Redistribution) {
	w.u64(uint64(len(rs)))
	for _, r := range rs {
		w.u64(uint64(r.From))
		w.str(r.RouteMap)
		w.i64(r.Metric)
		w.span(r.Span)
	}
}

// writeDAG serializes the reduced BDD rooted at root into w in a
// canonical form: nodes are numbered by DFS discovery order (low before
// high) local to this root, each emitted once as (variable, lowRef,
// highRef), followed by the root reference. Refs carry the complement
// bit in their low bit; the terminal is id 0, so False renders as 0 and
// True as 1. Two roots serialize identically iff they denote the same
// boolean function under the factory's variable order — BDD canonicity.
func writeDAG(w *hw, f *bdd.Factory, root bdd.Node) {
	ids := map[bdd.Node]uint64{}
	next := uint64(1)
	var visit func(n bdd.Node) uint64
	visit = func(n bdd.Node) uint64 {
		c := uint64(n & 1)
		reg := n &^ 1
		if reg == bdd.False {
			return c
		}
		if id, ok := ids[reg]; ok {
			return id<<1 | c
		}
		lo := visit(f.Low(reg))
		hi := visit(f.High(reg))
		id := next
		next++
		ids[reg] = id
		w.u64(uint64(f.Level(reg)))
		w.u64(lo)
		w.u64(hi)
		return id<<1 | c
	}
	ref := visit(root)
	w.u64(ref)
}

// hw is a minimal length-prefixed binary writer over a running SHA-256.
// Its writes are a few bytes each, so it gathers them in buf and feeds
// the hash in large chunks: per-call hash overhead would otherwise
// dominate.
type hw struct {
	h   hash.Hash
	buf []byte
}

// hwChunk is the size at which hw flushes its buffer into the hash.
const hwChunk = 4096

func newHW() *hw { return &hw{h: sha256.New(), buf: make([]byte, 0, hwChunk+64)} }

func (w *hw) flushFull() {
	if len(w.buf) >= hwChunk {
		w.h.Write(w.buf)
		w.buf = w.buf[:0]
	}
}

// sum is the hex digest of everything written.
func (w *hw) sum() string {
	w.h.Write(w.buf)
	w.buf = w.buf[:0]
	return hex.EncodeToString(w.h.Sum(nil))
}

func (w *hw) byte(c byte) {
	w.buf = append(w.buf, c)
	w.flushFull()
}

func (w *hw) u64(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
	w.flushFull()
}

func (w *hw) i64(v int64) { w.u64(uint64(v)) }

func (w *hw) b(v bool) {
	if v {
		w.byte(1)
	} else {
		w.byte(0)
	}
}

func (w *hw) str(s string) {
	w.u64(uint64(len(s)))
	w.buf = append(w.buf, s...)
	w.flushFull()
}

func (w *hw) strs(ss []string) {
	w.u64(uint64(len(ss)))
	for _, s := range ss {
		w.str(s)
	}
}

// span pins a text span's line numbers and raw text but not its file:
// reports render file:line locations, and the file name is exactly the
// per-device identity the expansion layer substitutes.
func (w *hw) span(s ir.TextSpan) {
	w.u64(uint64(s.StartLine))
	w.u64(uint64(s.EndLine))
	w.strs(s.Lines)
}

func (w *hw) prefix(p netaddr.Prefix) {
	w.u64(uint64(p.Addr))
	w.u64(uint64(p.Len))
}

func (w *hw) prefixRange(r netaddr.PrefixRange) {
	w.prefix(r.Prefix)
	w.u64(uint64(r.Lo))
	w.u64(uint64(r.Hi))
}

func (w *hw) portRanges(rs []netaddr.PortRange) {
	w.u64(uint64(len(rs)))
	for _, r := range rs {
		w.u64(uint64(r.Lo))
		w.u64(uint64(r.Hi))
	}
}

func comparePrefixRange(a, b netaddr.PrefixRange) int {
	switch {
	case a.Prefix.Addr != b.Prefix.Addr:
		if a.Prefix.Addr < b.Prefix.Addr {
			return -1
		}
		return 1
	case a.Prefix.Len != b.Prefix.Len:
		return int(a.Prefix.Len) - int(b.Prefix.Len)
	case a.Lo != b.Lo:
		return int(a.Lo) - int(b.Lo)
	default:
		return int(a.Hi) - int(b.Hi)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
