// Package core implements Campion's top-level ConfigDiff algorithm (§3):
// corresponding configuration components of two routers are paired up by
// the MatchPolicies heuristics (§4), each pair is dispatched to
// SemanticDiff or StructuralDiff per the paper's Table 1, and every
// difference is localized — headers via HeaderLocalize, text via the
// source spans the parsers preserved.
package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/bdd"
	"repro/internal/headerloc"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/semdiff"
	"repro/internal/structdiff"
	"repro/internal/symbolic"
)

// Component selects which checks Diff runs.
type Component string

// The comparable components, mirroring Table 1 of the paper.
const (
	ComponentRouteMaps Component = "route-maps" // SemanticDiff
	ComponentACLs      Component = "acls"       // SemanticDiff
	ComponentStatic    Component = "static"     // StructuralDiff
	ComponentConnected Component = "connected"  // StructuralDiff
	ComponentBGP       Component = "bgp"        // StructuralDiff
	ComponentOSPF      Component = "ospf"       // StructuralDiff
	ComponentAdmin     Component = "admin"      // StructuralDiff
)

// AllComponents lists every component in canonical order.
var AllComponents = []Component{
	ComponentRouteMaps, ComponentACLs, ComponentStatic, ComponentConnected,
	ComponentBGP, ComponentOSPF, ComponentAdmin,
}

// CheckKind names the analysis used for a component (Table 1).
func CheckKind(c Component) string {
	switch c {
	case ComponentRouteMaps, ComponentACLs:
		return "SemanticDiff"
	default:
		return "StructuralDiff"
	}
}

// Options configures a Diff run.
type Options struct {
	// Components restricts the checks; empty means all.
	Components []Component
	// ExhaustiveCommunities additionally localizes the community
	// dimension of every route-map difference completely (the §4
	// HeaderLocalize extension), instead of the default single example.
	ExhaustiveCommunities bool
	// Workers bounds the concurrency of the semantic checks: route-map
	// chain comparisons and ACL pairs fan out over a worker pool, each
	// worker owning a private BDD factory. 0 means one worker per CPU;
	// 1 runs fully sequentially. Output is identical either way.
	Workers int
	// PolicyCache, when non-nil and Workers is 1, carries compiled
	// route-map chains (and the BDD factory they live on) across Diff
	// calls, so batch drivers comparing many pairs of the same devices
	// skip re-encoding unchanged policies. The cache is single-goroutine
	// state: never share one across concurrent Diff calls. Reports are
	// byte-identical with and without it.
	PolicyCache *PolicyCache
	// Tracer, when non-nil, records a span tree of the run: the diff,
	// each component check, each worker, and each chain-pair comparison.
	// Disabled tracing (nil) costs one branch per span site — spans are
	// opened at task granularity, never per BDD operation.
	Tracer *obs.Tracer
	// TraceParent nests this Diff's spans under an existing span (the
	// batch engine points it at the pair's span). With a nil TraceParent
	// and a non-nil Tracer, Diff opens a root span.
	TraceParent *obs.Span
	// Metrics, when non-nil, receives the run's counters and histograms:
	// BDD node allocations and op-cache hits, policy-cache recalls per
	// vocabulary fingerprint, encoding memo hits, worker queue-wait vs
	// compute time, and per-component latency. All instruments are
	// atomics resolved once per component, so the enabled path stays off
	// the BDD hot loops and the disabled path is a nil check.
	Metrics *obs.Registry
	// MaxNodes bounds the BDD nodes one semantic task (a route-map chain
	// comparison, an ACL pair, or the shared encoding construction) may
	// allocate before it is aborted with an ErrBudget PairError — the
	// guard against BDD state explosion on pathological policies. The
	// abort is per comparison: sibling tasks and sibling batch pairs
	// complete normally. 0 means unlimited. The bound is a ceiling per
	// unit of work, not an exact cross-configuration invariant:
	// hash-consing lets a task reuse nodes built by earlier tasks on the
	// same worker, so set it with an order-of-magnitude margin.
	MaxNodes int
	// Timeout, when positive, caps the wall time of this one Diff call by
	// deriving a deadline context — convenient per-pair protection for
	// batch drivers whose outer context spans the whole run. Expiry
	// surfaces as an ErrCanceled PairError wrapping
	// context.DeadlineExceeded.
	Timeout time.Duration
	// Journal, when non-nil, receives flight-recorder events: one
	// component event per enabled check (duration, BDD node delta). The
	// batch and fleet drivers emit the surrounding pair/phase/run events.
	// Like Tracer and Metrics, nil costs one branch per site.
	Journal *obs.Journal
	// JournalPair labels this Diff's journal events with the pair name
	// (set by the batch driver; empty for standalone Diff calls).
	JournalPair string
}

// diffSpan opens the top-level span of one Diff call (nil when tracing
// is off).
func (o Options) diffSpan(c1, c2 *ir.Config) *obs.Span {
	attrs := func() []obs.Attr {
		return []obs.Attr{obs.Str("host1", c1.Hostname), obs.Str("host2", c2.Hostname)}
	}
	if o.TraceParent != nil {
		return o.TraceParent.Child("diff", attrs()...)
	}
	if o.Tracer != nil {
		return o.Tracer.Root("diff", attrs()...)
	}
	return nil
}

// Stable metric names. DESIGN.md's Observability section documents their
// semantics; tests and dashboards rely on them, so treat them as API.
const (
	MetricBDDNodes          = "campion_bdd_nodes_allocated_total"
	MetricBDDCacheHits      = "campion_bdd_op_cache_hits_total"
	MetricBDDCacheMisses    = "campion_bdd_op_cache_misses_total"
	MetricEncodingMemoHits  = "campion_encoding_memo_hits_total"
	MetricEncodingMemoMiss  = "campion_encoding_memo_misses_total"
	MetricPolicyChainHits   = "campion_policy_cache_chain_hits_total"
	MetricPolicyChainMisses = "campion_policy_cache_chain_misses_total"
	MetricPolicyRebuilds    = "campion_policy_cache_rebuilds_total"
	MetricWorkerBusy        = "campion_worker_busy_nanoseconds_total"
	MetricWorkerWait        = "campion_worker_wait_nanoseconds_total"
	MetricComponentLatency  = "campion_component_duration_nanoseconds"
	MetricDiffsFound        = "campion_diffs_total"
	MetricIntraPairStripes  = "campion_intra_pair_stripes_total"
)

// recordComponent flushes one component's profile into the registry.
func (o Options) recordComponent(st ComponentStats) {
	m := o.Metrics
	if m == nil {
		return
	}
	comp := obs.L("component", string(st.Component))
	m.Histogram(MetricComponentLatency, "wall time of one component check", comp).
		Observe(int64(st.Duration))
	if st.Kind != "SemanticDiff" {
		return
	}
	m.Counter(MetricBDDNodes, "BDD nodes allocated across all factories", comp).
		Add(uint64(st.BDDNodes))
	m.Counter(MetricBDDCacheHits, "BDD op-cache hits", comp).Add(st.CacheHits)
	m.Counter(MetricBDDCacheMisses, "BDD op-cache misses", comp).Add(st.CacheMisses)
}

// recordMemo flushes an encoding's memo-table counters into the registry.
func (o Options) recordMemo(ms symbolic.MemoStats) {
	m := o.Metrics
	if m == nil {
		return
	}
	m.Counter(MetricEncodingMemoHits, "route-encoding memo recalls", obs.L("kind", "range")).
		Add(uint64(ms.RangeHits))
	m.Counter(MetricEncodingMemoMiss, "route-encoding memo builds", obs.L("kind", "range")).
		Add(uint64(ms.RangeMisses))
	m.Counter(MetricEncodingMemoHits, "route-encoding memo recalls", obs.L("kind", "list")).
		Add(uint64(ms.ListHits))
	m.Counter(MetricEncodingMemoMiss, "route-encoding memo builds", obs.L("kind", "list")).
		Add(uint64(ms.ListMisses))
}

// recordPolicyCache flushes compiled-chain cache deltas, labeled by the
// (hashed) vocabulary fingerprint so misbehaving device groups — the ones
// forcing rebuilds or missing constantly — are identifiable on /metrics.
func (o Options) recordPolicyCache(fp string, hits, misses, rebuilds int) {
	m := o.Metrics
	if m == nil || (hits == 0 && misses == 0 && rebuilds == 0) {
		return
	}
	l := obs.L("fingerprint", fpLabel(fp))
	m.Counter(MetricPolicyChainHits, "compiled-chain recalls from a policy cache", l).
		Add(uint64(hits))
	m.Counter(MetricPolicyChainMisses, "compiled-chain compilations", l).
		Add(uint64(misses))
	if rebuilds > 0 {
		m.Counter(MetricPolicyRebuilds, "policy-cache encoding rebuilds (vocabulary changed)", l).
			Add(uint64(rebuilds))
	}
}

// recordStripes counts one intra-pair striped comparison at its stripe
// width.
func (o Options) recordStripes(component string, stripes int) {
	m := o.Metrics
	if m == nil {
		return
	}
	m.Counter(MetricIntraPairStripes, "stripes launched by intra-pair parallel diffs",
		obs.L("component", component)).Add(uint64(stripes))
}

// recordWorker flushes one worker's queue-wait vs compute split.
func (o Options) recordWorker(pool string, wait, busy time.Duration) {
	m := o.Metrics
	if m == nil {
		return
	}
	l := obs.L("pool", pool)
	m.Counter(MetricWorkerWait, "time workers spent blocked on the job queue", l).
		Add(uint64(wait))
	m.Counter(MetricWorkerBusy, "time workers spent computing", l).
		Add(uint64(busy))
}

// fpLabel digests a vocabulary fingerprint (an unbounded binary string)
// into a short stable hex label.
func fpLabel(fp string) string {
	if fp == "" {
		return "(worker)"
	}
	h := fnv.New64a()
	h.Write([]byte(fp))
	return fmt.Sprintf("%016x", h.Sum64())
}

func (o Options) enabled(c Component) bool {
	if len(o.Components) == 0 {
		return true
	}
	for _, x := range o.Components {
		if x == c {
			return true
		}
	}
	return false
}

// PolicyPair identifies a matched pair of routing policies.
type PolicyPair struct {
	// Kind is "bgp-import", "bgp-export", or "redistribution".
	Kind string
	// Neighbor is the shared peer address (bgp kinds) or the source
	// protocol (redistribution).
	Neighbor string
	// Names1 and Names2 are the policy-chain name sequences on each
	// router; empty when a side applies no policy. They identify the
	// chains exactly — policy names may contain any character, so the
	// sequences are never round-tripped through a joined string.
	Names1, Names2 []string
	// Name1 and Name2 render the chains for display: "(none)" for an
	// empty chain, "A+B" for a JunOS policy chain.
	Name1, Name2 string
}

// newPolicyPair builds a pair with both the identifying sequences and
// their display forms.
func newPolicyPair(kind, neighbor string, names1, names2 []string) PolicyPair {
	return PolicyPair{
		Kind: kind, Neighbor: neighbor,
		Names1: names1, Names2: names2,
		Name1: chainName(names1), Name2: chainName(names2),
	}
}

// String renders the pair as "kind neighbor: chain1 vs chain2".
func (p PolicyPair) String() string {
	return fmt.Sprintf("%s %s: %s vs %s", p.Kind, p.Neighbor, p.Name1, p.Name2)
}

// RouteMapDiff is one localized behavioral difference between a matched
// pair of routing policies.
type RouteMapDiff struct {
	Pair PolicyPair
	// Localization carries the included/excluded prefix ranges and the
	// single-example fields.
	Localization headerloc.RouteLocalization
	// Action1/Action2 render each router's disposition (REJECT, ACCEPT,
	// ACCEPT + sets).
	Action1, Action2 string
	// Text1/Text2 are the responsible configuration lines.
	Text1, Text2 ir.TextSpan
}

// ACLPairDiff is one localized behavioral difference between a matched
// pair of ACLs.
type ACLPairDiff struct {
	Name1, Name2     string
	Localization     headerloc.ACLLocalization
	Action1, Action2 string
	Text1, Text2     ir.TextSpan
}

// ComponentStats profiles one component check of a Diff run, so speedups
// from the parallel engine are measurable per component.
type ComponentStats struct {
	Component Component
	// Kind is the analysis used (Table 1): SemanticDiff or StructuralDiff.
	Kind string
	// Duration is the component's wall time.
	Duration time.Duration
	// Workers is the pool size used (semantic components only).
	Workers int
	// Pairs counts the matched pairs dispatched; UniquePairs counts the
	// distinct comparisons left after chain-identity deduplication.
	Pairs, UniquePairs int
	// BDDNodes sums the nodes allocated by this component's factories
	// during this Diff call; CacheHits and CacheMisses sum their op-cache
	// counters over the same interval. When a factory outlives the call
	// (a cross-pair PolicyCache), the numbers are deltas against its
	// state at entry, so per-pair stats never double-count earlier pairs.
	BDDNodes               int
	CacheHits, CacheMisses uint64
	// PolicyCacheHits counts route-map chains recalled from a policy
	// cache (cross-pair or per-worker transient) instead of recompiled.
	PolicyCacheHits int
	// Stripes is the intra-pair stripe width used when a single oversized
	// comparison was partitioned across workers; 0 when unstriped.
	Stripes int
}

// Report is the full result of comparing two router configurations.
type Report struct {
	Config1, Config2 *ir.Config

	RouteMapDiffs []RouteMapDiff
	ACLDiffs      []ACLPairDiff
	Structural    []structdiff.Difference

	// UnmatchedACLs lists ACL names present on exactly one router.
	UnmatchedACLs1, UnmatchedACLs2 []string

	// Stats profiles each component check that ran. It is execution
	// metadata (wall times vary run to run) and is excluded from the
	// rendered difference tables and JSON, which stay deterministic.
	Stats []ComponentStats
}

// TotalDifferences counts every reported difference.
func (r *Report) TotalDifferences() int {
	return len(r.RouteMapDiffs) + len(r.ACLDiffs) + len(r.Structural) +
		len(r.UnmatchedACLs1) + len(r.UnmatchedACLs2)
}

// Diff runs Campion's full comparison of two router configurations.
// It is DiffContext without cancellation.
func Diff(c1, c2 *ir.Config, opts Options) (*Report, error) {
	return DiffContext(context.Background(), c1, c2, opts)
}

// DiffContext runs Campion's full comparison of two router
// configurations under a context. Cancellation and deadline expiry are
// honored between components, between semantic tasks, and — via the BDD
// factory interrupt — inside the symbolic kernels themselves, with
// microseconds of latency; the call then returns an ErrCanceled
// PairError. Options.Timeout derives a per-call deadline;
// Options.MaxNodes bounds each semantic task's BDD allocation
// (ErrBudget). A nil ctx means context.Background().
func DiffContext(ctx context.Context, c1, c2 *ir.Config, opts Options) (*Report, error) {
	rep, _, err := diffContext(ctx, c1, c2, opts, false)
	return rep, err
}

// DiffBoth compares the two configurations in both orientations in one
// pass: one encoding, one path enumeration per side, one class product
// and one localization per region. fwd is byte-for-byte the report
// DiffContext(ctx, c1, c2, opts) returns, with the same error. rev is the
// report of DiffContext(ctx, c2, c1, opts), without Stats: SemanticDiff's
// regions are symmetric, so rev holds the same localized regions with
// the sides swapped, in the order a (c2, c1) run emits them (see
// DESIGN.md). rev is nil whenever err is non-nil or the reverse could
// not be derived; the caller then diffs (c2, c1) on its own.
func DiffBoth(ctx context.Context, c1, c2 *ir.Config, opts Options) (fwd, rev *Report, err error) {
	return diffContext(ctx, c1, c2, opts, true)
}

// mirror collects the reverse report of a DiffBoth pass alongside the
// forward one.
type mirror struct {
	rep  *Report
	lost bool // a component could not derive its reverse half
}

func diffContext(ctx context.Context, c1, c2 *ir.Config, opts Options, both bool) (*Report, *Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}
	rep := &Report{Config1: c1, Config2: c2}
	var mir *mirror
	if both {
		mir = &mirror{rep: &Report{Config1: c2, Config2: c1}}
	}
	dsp := opts.diffSpan(c1, c2)
	defer dsp.End()

	// timed runs one enabled component check and records its profile,
	// both into the report and (when enabled) the tracer and registry.
	// A context already done skips the component and surfaces the
	// cancellation instead.
	timed := func(c Component, fn func(st *ComponentStats, sp *obs.Span) error) error {
		if !opts.enabled(c) {
			return nil
		}
		if err := ctxErr(ctx); err != nil {
			return &PairError{Pair: string(c), Kind: ErrCanceled, Err: err}
		}
		st := ComponentStats{Component: c, Kind: CheckKind(c)}
		var sp *obs.Span
		if dsp != nil {
			sp = dsp.Child(string(c), obs.Str("kind", st.Kind))
		}
		start := time.Now()
		err := fn(&st, sp)
		st.Duration = time.Since(start)
		if sp != nil {
			sp.SetAttrs(obs.Int("pairs", st.Pairs), obs.Int("uniquePairs", st.UniquePairs),
				obs.Int("bddNodes", st.BDDNodes), obs.Int("policyCacheHits", st.PolicyCacheHits))
			sp.End()
		}
		opts.recordComponent(st)
		opts.Journal.Emit(obs.Event{
			Type:      obs.EvComponent,
			Pair:      opts.JournalPair,
			Component: string(c),
			Kind:      st.Kind,
			Dur:       int64(st.Duration),
			Nodes:     int64(st.BDDNodes),
		})
		rep.Stats = append(rep.Stats, st)
		return err
	}
	// Structural checks are cheap: a joint pass simply runs them again
	// with the sides swapped.
	structural := func(fn func(a, b *ir.Config) []structdiff.Difference) func(*ComponentStats, *obs.Span) error {
		return func(st *ComponentStats, _ *obs.Span) error {
			rep.Structural = append(rep.Structural, fn(c1, c2)...)
			if mir != nil {
				mir.rep.Structural = append(mir.rep.Structural, fn(c2, c1)...)
			}
			return nil
		}
	}

	checks := []struct {
		c  Component
		fn func(st *ComponentStats, sp *obs.Span) error
	}{
		{ComponentRouteMaps, func(st *ComponentStats, sp *obs.Span) error {
			return diffRouteMaps(ctx, rep, mir, c1, c2, opts, st, sp)
		}},
		{ComponentACLs, func(st *ComponentStats, sp *obs.Span) error {
			return diffACLs(ctx, rep, mir, c1, c2, opts, st, sp)
		}},
		{ComponentStatic, structural(structdiff.DiffStaticRoutes)},
		{ComponentConnected, structural(structdiff.DiffConnectedRoutes)},
		{ComponentBGP, structural(func(a, b *ir.Config) []structdiff.Difference {
			return append(structdiff.DiffBGPConfig(a, b), structdiff.DiffBGPNeighbors(a, b)...)
		})},
		{ComponentOSPF, structural(structdiff.DiffOSPF)},
		{ComponentAdmin, structural(structdiff.DiffAdminDistances)},
	}
	for _, check := range checks {
		if err := timed(check.c, check.fn); err != nil {
			return nil, nil, err
		}
	}
	var rev *Report
	if mir != nil && !mir.lost {
		rev = mir.rep
	}
	if opts.Metrics != nil {
		n := rep.TotalDifferences()
		if rev != nil {
			n += rev.TotalDifferences()
		}
		opts.Metrics.Counter(MetricDiffsFound, "localized differences reported").Add(uint64(n))
	}
	return rep, rev, nil
}

// MatchPolicies pairs up the routing policies of the two configurations
// using the paper's heuristics: BGP policies are matched per shared
// neighbor address and direction; redistribution policies per source
// protocol.
func MatchPolicies(c1, c2 *ir.Config) []PolicyPair {
	var pairs []PolicyPair
	if c1.BGP != nil && c2.BGP != nil {
		for _, addr := range c1.BGP.NeighborAddrs() {
			n1 := c1.BGP.Neighbors[addr]
			n2 := c2.BGP.Neighbors[addr]
			if n2 == nil {
				continue // presence handled by StructuralDiff
			}
			pairs = append(pairs,
				newPolicyPair("bgp-import", addr, n1.ImportPolicies, n2.ImportPolicies),
				newPolicyPair("bgp-export", addr, n1.ExportPolicies, n2.ExportPolicies),
			)
		}
	}
	// Redistribution policies, paired by target process + source protocol.
	redistPairs := func(kind string, r1, r2 []ir.Redistribution) {
		byProto := func(rs []ir.Redistribution) map[ir.Protocol]ir.Redistribution {
			m := map[ir.Protocol]ir.Redistribution{}
			for _, r := range rs {
				m[r.From] = r
			}
			return m
		}
		m1, m2 := byProto(r1), byProto(r2)
		var protos []int
		for p := range m1 {
			protos = append(protos, int(p))
		}
		sort.Ints(protos)
		for _, pi := range protos {
			p := ir.Protocol(pi)
			if r2, ok := m2[p]; ok {
				r1 := m1[p]
				pairs = append(pairs, newPolicyPair(kind, p.String(),
					sliceIfNonEmpty(r1.RouteMap), sliceIfNonEmpty(r2.RouteMap)))
			}
		}
	}
	if c1.BGP != nil && c2.BGP != nil {
		redistPairs("redistribution-bgp", c1.BGP.Redistribute, c2.BGP.Redistribute)
	}
	if c1.OSPF != nil && c2.OSPF != nil {
		redistPairs("redistribution-ospf", c1.OSPF.Redistribute, c2.OSPF.Redistribute)
	}
	return pairs
}

func sliceIfNonEmpty(s string) []string {
	if s == "" {
		return nil
	}
	return []string{s}
}

func chainName(names []string) string {
	if len(names) == 0 {
		return "(none)"
	}
	out := names[0]
	for _, n := range names[1:] {
		out += "+" + n
	}
	return out
}

// ResolveChain turns a policy chain into a single route map: an empty
// chain is the identity policy (accept everything unchanged); a JunOS
// chain concatenates the policies' terms with the protocol's
// default-accept at the end; an IOS chain is its single route map.
func ResolveChain(cfg *ir.Config, names []string) *ir.RouteMap {
	if len(names) == 0 {
		return &ir.RouteMap{Name: "(none)", DefaultAction: ir.Permit}
	}
	if len(names) == 1 {
		if rm := cfg.RouteMaps[names[0]]; rm != nil {
			return rm
		}
		// A referenced but undefined policy: IOS treats it as permit-all.
		return &ir.RouteMap{Name: names[0], DefaultAction: ir.Permit}
	}
	merged := &ir.RouteMap{Name: chainName(names), DefaultAction: ir.Permit}
	for _, n := range names {
		rm := cfg.RouteMaps[n]
		if rm == nil {
			continue
		}
		merged.Clauses = append(merged.Clauses, rm.Clauses...)
		merged.Span = merged.Span.Merge(rm.Span)
		merged.DefaultAction = rm.DefaultAction
	}
	return merged
}

// maxCommunityTerms bounds exhaustive community localization output.
const maxCommunityTerms = 64

// policyPairs lists the policy pairs the route-map component compares:
// MatchPolicies, or — with no BGP context — same-named route maps, so
// standalone policy files can still be checked.
func policyPairs(c1, c2 *ir.Config) []PolicyPair {
	if pairs := MatchPolicies(c1, c2); len(pairs) > 0 {
		return pairs
	}
	var names []string
	for n := range c1.RouteMaps {
		if _, ok := c2.RouteMaps[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	var pairs []PolicyPair
	for _, n := range names {
		pairs = append(pairs, newPolicyPair("route-map", n, []string{n}, []string{n}))
	}
	return pairs
}

// diffRouteMaps runs the SemanticDiff of every matched policy pair over
// the parallel engine and assembles the localized differences in matched
// order. The first failed task's structured error aborts the pair (the
// batch layer isolates it from sibling pairs). With a mirror it also
// assembles the (c2, c1) differences from the same task results.
func diffRouteMaps(ctx context.Context, rep *Report, mir *mirror, c1, c2 *ir.Config, opts Options, stats *ComponentStats, span *obs.Span) error {
	pairs := policyPairs(c1, c2)
	if len(pairs) == 0 {
		return nil
	}

	// Cross-pair result cache keyed by resolved chain identity: the same
	// export policy applied to many neighbors becomes one task, checked
	// once — concurrently with the other unique tasks.
	taskIndex := map[string]int{}
	var tasks []rmTask
	pairTask := make([]int, len(pairs))
	for i, pair := range pairs {
		k := chainKeyOf(pair.Names1, pair.Names2)
		ti, ok := taskIndex[k]
		if !ok {
			ti = len(tasks)
			taskIndex[k] = ti
			tasks = append(tasks, rmTask{names1: pair.Names1, names2: pair.Names2})
		}
		pairTask[i] = ti
	}
	stats.Pairs = len(pairs)
	stats.UniquePairs = len(tasks)

	results := runRouteMapTasks(ctx, c1, c2, tasks, opts, stats, span)

	// Deterministic assembly: walk the pairs in matched order and splice
	// in each one's task results, whatever order the workers finished in.
	// A task error surfaces at its first referencing pair, exactly where
	// a sequential run would have stopped.
	for i, pair := range pairs {
		res := results[pairTask[i]]
		if res.err != nil {
			return res.err
		}
		for _, d := range res.diffs {
			rep.RouteMapDiffs = append(rep.RouteMapDiffs, RouteMapDiff{
				Pair:         pair,
				Localization: d.Localization,
				Action1:      d.Action1,
				Action2:      d.Action2,
				Text1:        d.Text1,
				Text2:        d.Text2,
			})
		}
	}
	// Avoid re-reporting shared policies per neighbor: collapse exact
	// duplicates (same pair names and same localization text).
	rep.RouteMapDiffs = dedupeRouteMapDiffs(rep.RouteMapDiffs)
	if mir != nil {
		mirrorRouteMaps(mir, c1, c2, taskIndex, results)
	}
	return nil
}

// mirrorRouteMaps assembles the (c2, c1) route-map differences from the
// forward task results. A (c2, c1) run compares each chain pair with the
// sides swapped: the same class product, emitted with the loops swapped,
// so its differences are the forward ones with the sides exchanged, in
// (key2, key1) order. The pair walk and the dedupe are replayed over
// (c2, c1)'s own policy pairs.
func mirrorRouteMaps(mir *mirror, c1, c2 *ir.Config, taskIndex map[string]int, results []rmTaskResult) {
	swapped := make([][]localizedRouteDiff, len(results))
	var out []RouteMapDiff
	for _, pair := range policyPairs(c2, c1) {
		ti, ok := taskIndex[chainKeyOf(pair.Names2, pair.Names1)]
		if !ok {
			mir.lost = true
			return
		}
		if swapped[ti] == nil && len(results[ti].diffs) > 0 {
			ds := append([]localizedRouteDiff(nil), results[ti].diffs...)
			sort.Slice(ds, func(i, j int) bool {
				if ds[i].key2 != ds[j].key2 {
					return ds[i].key2.less(ds[j].key2)
				}
				return ds[i].key1.less(ds[j].key1)
			})
			swapped[ti] = ds
		}
		for _, d := range swapped[ti] {
			out = append(out, RouteMapDiff{
				Pair:         pair,
				Localization: d.Localization,
				Action1:      d.Action2,
				Action2:      d.Action1,
				Text1:        d.Text2,
				Text2:        d.Text1,
			})
		}
	}
	mir.rep.RouteMapDiffs = dedupeRouteMapDiffs(out)
}

func dedupeRouteMapDiffs(ds []RouteMapDiff) []RouteMapDiff {
	seen := map[string]bool{}
	var out []RouteMapDiff
	for _, d := range ds {
		var b strings.Builder
		for i, f := range [...]string{d.Pair.Kind, d.Pair.Neighbor, d.Pair.Name1, d.Pair.Name2,
			d.Action1, d.Action2, d.Text1.Location(), d.Text2.Location()} {
			if i > 0 {
				b.WriteByte('|')
			}
			b.WriteString(f)
		}
		for _, t := range d.Localization.Terms {
			b.WriteByte('|')
			b.WriteString(t.String())
		}
		k := b.String()
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, d)
	}
	return out
}

// describeRouteAction renders a path's action for the Action row of the
// report (REJECT, ACCEPT, or ACCEPT with its attribute sets).
func describeRouteAction(p symbolic.RoutePath) string {
	if !p.Accept {
		return "REJECT"
	}
	if p.Transform.IsIdentity() {
		return "ACCEPT"
	}
	return p.Transform.String() + "\nACCEPT"
}

// routePathText returns the deciding clause's text span; for the default
// action it synthesizes a descriptive pseudo-span.
func routePathText(p symbolic.RoutePath) ir.TextSpan {
	if p.Terminal != nil {
		return p.Terminal.Span
	}
	return ir.TextSpan{Lines: []string{"(default action: no clause matched)"}}
}

// aclPairFailure classifies a panic recovered from one ACL pair
// comparison, locating it at the first side's ACL definition.
func aclPairFailure(r any, name string, acl1 *ir.ACL) error {
	var file string
	var line int
	if acl1 != nil {
		file, line = acl1.Span.File, acl1.Span.StartLine
	}
	label := "acl " + name
	if a, ok := r.(bdd.Abort); ok {
		return &PairError{Pair: label, Kind: abortKind(a), File: file, Line: line, Err: a.Err}
	}
	return &PairError{
		Pair: label, Kind: ErrInternal, File: file, Line: line,
		Err: fmt.Errorf("panic: %v", r), Stack: string(debug.Stack()),
	}
}

// diffACLs compares every same-named ACL pair on a bounded worker pool,
// matching the route-map engine: each worker owns one BDD factory,
// recycled between its ACL pairs, so no allocation happens until a worker
// actually holds a job. Every pair runs under the fault guard — a budget
// or cancellation abort (or a crash) fails this configuration pair with a
// structured error while other workers' pairs still compute. With a
// mirror it also assembles the (c2, c1) differences.
func diffACLs(ctx context.Context, rep *Report, mir *mirror, c1, c2 *ir.Config, opts Options, stats *ComponentStats, span *obs.Span) error {
	// MatchPolicies for ACLs: same name (§4).
	var shared []string
	for name := range c1.ACLs {
		if _, ok := c2.ACLs[name]; ok {
			shared = append(shared, name)
		} else {
			rep.UnmatchedACLs1 = append(rep.UnmatchedACLs1, name)
		}
	}
	for name := range c2.ACLs {
		if _, ok := c1.ACLs[name]; !ok {
			rep.UnmatchedACLs2 = append(rep.UnmatchedACLs2, name)
		}
	}
	sort.Strings(shared)
	sort.Strings(rep.UnmatchedACLs1)
	sort.Strings(rep.UnmatchedACLs2)
	if mir != nil {
		mir.rep.UnmatchedACLs1, mir.rep.UnmatchedACLs2 = rep.UnmatchedACLs2, rep.UnmatchedACLs1
	}
	stats.Pairs = len(shared)
	stats.UniquePairs = len(shared)
	if len(shared) == 0 {
		return nil
	}

	perName := make([][]ACLPairDiff, len(shared))
	perKeys := make([][][2]int, len(shared)) // each diff's two class positions
	perErr := make([]error, len(shared))
	workers := opts.workerCount(len(shared))
	stats.Workers = workers
	var mu sync.Mutex // guards stats aggregation across workers
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var wsp *obs.Span
			if span != nil {
				wsp = span.Child("worker", obs.Int("worker", w))
			}
			var f *bdd.Factory
			var nodes int
			var hits, misses uint64
			var wait, busy time.Duration
			mark := time.Now()
			for i := range jobs {
				now := time.Now()
				wait += now.Sub(mark)
				name := shared[i]
				var asp *obs.Span
				if wsp != nil {
					asp = wsp.Child("acl-pair", obs.Str("acl", name))
				}
				acl1, acl2 := c1.ACLs[name], c2.ACLs[name]
				// One guarded unit per pair. NewPacketEncodingInto Resets
				// the factory, so the budget baseline and the per-pair
				// Stats both start from the fresh arena.
				func() {
					defer func() {
						if r := recover(); r != nil {
							perErr[i] = aclPairFailure(r, name, acl1)
							f = nil // state unverified: rebuild next pair
						}
					}()
					if err := ctxErr(ctx); err != nil {
						perErr[i] = &PairError{Pair: "acl " + name, Kind: ErrCanceled, Err: err}
						return
					}
					if stripes := opts.aclStripes(len(shared), acl1, acl2); stripes > 1 {
						// One oversized pair with idle workers: partition it
						// across source-address regions instead of leaving
						// the pool starved (see stripe.go).
						ds, keys, st, err := runStripedACLPair(ctx, name, acl1, acl2, stripes, opts)
						perName[i], perKeys[i], perErr[i] = ds, keys, err
						nodes += st.Nodes
						hits += st.CacheHits
						misses += st.CacheMisses
						opts.recordStripes("acls", stripes)
						mu.Lock()
						if stripes > stats.Stripes {
							stats.Stripes = stripes
						}
						mu.Unlock()
						if asp != nil && err == nil {
							asp.SetAttrs(obs.Int("diffs", len(ds)), obs.Int("stripes", stripes))
							asp.End()
							asp = nil
						}
						return
					}
					if f == nil {
						f = newArmedFactory(ctx, opts)
					}
					enc := symbolic.NewPacketEncodingInto(f)
					f = enc.F
					diffs := semdiff.DiffACLs(enc, acl1, acl2)
					if len(diffs) > 0 {
						loc := headerloc.NewACLLocalizer(enc, acl1, acl2)
						for _, d := range diffs {
							perName[i] = append(perName[i], ACLPairDiff{
								Name1: name, Name2: name,
								Localization: loc.Localize(d.Inputs),
								Action1:      describeACLAction(d.Path1.Accept),
								Action2:      describeACLAction(d.Path2.Accept),
								Text1:        aclPathText(d.Path1),
								Text2:        aclPathText(d.Path2),
							})
							perKeys[i] = append(perKeys[i], [2]int{d.Index1, d.Index2})
						}
					}
					st := f.Stats()
					nodes += st.Nodes
					hits += st.CacheHits
					misses += st.CacheMisses
					if asp != nil {
						asp.SetAttrs(obs.Int("diffs", len(perName[i])), obs.Int("bddNodes", st.Nodes))
						asp.End()
					}
				}()
				if asp != nil && perErr[i] != nil {
					asp.SetAttrs(obs.Str("error", ErrKind(perErr[i])))
					asp.End()
				}
				mark = time.Now()
				busy += mark.Sub(now)
			}
			wait += time.Since(mark)
			if wsp != nil {
				wsp.SetAttrs(obs.Dur("queueWait", wait), obs.Dur("compute", busy))
				wsp.End()
			}
			opts.recordWorker("acl", wait, busy)
			mu.Lock()
			stats.BDDNodes += nodes
			stats.CacheHits += hits
			stats.CacheMisses += misses
			mu.Unlock()
			putFactory(f)
		}(w)
	}
	for i := range shared {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for _, ds := range perName {
		rep.ACLDiffs = append(rep.ACLDiffs, ds...)
	}
	// The first failed pair (in name order) aborts this configuration
	// pair, exactly where a sequential run would have stopped.
	for _, err := range perErr {
		if err != nil {
			return err
		}
	}
	if mir != nil {
		mirrorACLs(mir.rep, perName, perKeys)
	}
	return nil
}

// mirrorACLs assembles the (c2, c1) ACL differences: the same shared
// names and regions, each ACL's differences with the sides exchanged and
// put in (key2, key1) order — the order a (c2, c1) run's class product
// emits them. (diffACLs swaps the unmatched-name lists itself, since
// they exist even when no name is shared.)
func mirrorACLs(rev *Report, perName [][]ACLPairDiff, perKeys [][][2]int) {
	for i, ds := range perName {
		keys := perKeys[i]
		order := make([]int, len(ds))
		for k := range order {
			order[k] = k
		}
		sort.Slice(order, func(a, b int) bool {
			ka, kb := keys[order[a]], keys[order[b]]
			if ka[1] != kb[1] {
				return ka[1] < kb[1]
			}
			return ka[0] < kb[0]
		})
		for _, k := range order {
			d := ds[k]
			rev.ACLDiffs = append(rev.ACLDiffs, ACLPairDiff{
				Name1: d.Name2, Name2: d.Name1,
				Localization: d.Localization,
				Action1:      d.Action2,
				Action2:      d.Action1,
				Text1:        d.Text2,
				Text2:        d.Text1,
			})
		}
	}
}

func describeACLAction(accept bool) string {
	if accept {
		return "ACCEPT"
	}
	return "REJECT"
}

func aclPathText(p symbolic.ACLPath) ir.TextSpan {
	if p.Line != nil {
		return p.Line.Span
	}
	return ir.TextSpan{Lines: []string{"(implicit deny: no rule matched)"}}
}
