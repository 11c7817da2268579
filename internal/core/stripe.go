// Intra-pair parallel diff: striping one oversized comparison across
// workers. The pool in parallel.go parallelizes *across* matched pairs,
// which strands all but one worker when a run has fewer unique
// comparisons than workers — the common shape of "diff these two huge
// policies". Striping recovers the parallelism *inside* a single pair by
// partitioning the input space into disjoint contiguous regions of the
// encoding's signature window (symbolic.StripeRegions): each stripe
// diffs the pair restricted to its region on a private factory, and the
// merge Ors the per-region input sets back together on a fresh main
// factory via bdd.Transfer.
//
// Exactness: the regions partition the input space, so for every class
// pair (λ₁, λ₂) the union of per-region intersections is exactly
// λ₁ ∩ λ₂ — the merged report carries the same canonical input BDDs a
// sequential run builds, and localization on them is byte-identical.
// Pair order is restored deterministically: a path is identified by the
// set of clauses it takes, rendered as a big-endian index key whose
// ascending sort reproduces the sequential walk's emission order.
//
// The win is superadditive on top of the CPU count: a stripe's region
// signature lets the enumeration walk skip every clause (and the ACL
// scans skip every line) whose match prefixes cannot fall inside the
// region, so each stripe compiles a fraction of the ruleset — workers=4
// beats workers=1 even on one CPU.
package core

import (
	"context"
	"runtime"
	"sort"
	"sync"

	"repro/internal/bdd"
	"repro/internal/headerloc"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/semdiff"
	"repro/internal/symbolic"
)

// stripeMinClauses and stripeMinLines gate striping to comparisons big
// enough to amortize the per-stripe encoding build and the merge
// transfer. Note MaxNodes applies per stripe once a comparison is
// striped — each stripe is its own unit of work, compiling only its
// region's share of the ruleset. Variables so tests can lower them;
// treat as constants.
var (
	stripeMinClauses = 1024 // total resolved clauses across both chains
	stripeMinLines   = 2048 // total ACL lines across both sides
)

// effectiveWorkers resolves Options.Workers without a task-count clamp
// (stripes exist precisely because tasks < workers).
func (o Options) effectiveWorkers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// routeMapStripes decides whether (and how wide) to stripe the route-map
// component: only when workers would otherwise idle — fewer unique
// comparisons than workers — and at least one chain pair is oversized.
// Returns 0 or 1 for "don't stripe".
func (o Options) routeMapStripes(c1, c2 *ir.Config, tasks []rmTask) int {
	w := o.effectiveWorkers()
	if w <= 1 || len(tasks) >= w {
		return 0
	}
	big := false
	for _, t := range tasks {
		n := len(ResolveChain(c1, t.names1).Clauses) + len(ResolveChain(c2, t.names2).Clauses)
		if n >= stripeMinClauses {
			big = true
			break
		}
	}
	if !big {
		return 0
	}
	if w > 32 { // the signature window has 32 values
		w = 32
	}
	return w
}

// aclStripes is routeMapStripes for one ACL pair.
func (o Options) aclStripes(pairs int, acl1, acl2 *ir.ACL) int {
	w := o.effectiveWorkers()
	if w <= 1 || pairs >= w {
		return 0
	}
	if len(acl1.Lines)+len(acl2.Lines) < stripeMinLines {
		return 0
	}
	if w > 32 {
		w = 32
	}
	return w
}

// runRouteMapTasksStriped executes the unique chain comparisons
// sequentially, each one partitioned across stripes (parallel.go
// dispatches here instead of the pool when routeMapStripes fires).
func runRouteMapTasksStriped(ctx context.Context, c1, c2 *ir.Config, tasks []rmTask, stripes int, opts Options, stats *ComponentStats, span *obs.Span, results []rmTaskResult) {
	stats.Workers = stripes
	stats.Stripes = stripes
	for i := range tasks {
		results[i] = runStripedRouteMapTask(ctx, c1, c2, tasks[i], stripes, opts, stats, span)
	}
	opts.recordStripes(string(stats.Component), stripes*len(tasks))
}

// stripeResult is one region's share of a striped route-map comparison.
// The diffs' nodes live on enc's private factory until the merge
// transfers them out.
type stripeResult struct {
	enc   *symbolic.RouteEncoding
	diffs []semdiff.RouteMapDiff
	err   error
}

// runStripedRouteMapTask compares one chain pair with the input space
// partitioned into stripes: per-stripe enumeration + diff on private
// factories in parallel, then a deterministic merge and localization on
// a fresh main factory.
func runStripedRouteMapTask(ctx context.Context, c1, c2 *ir.Config, t rmTask, stripes int, opts Options, stats *ComponentStats, parent *obs.Span) rmTaskResult {
	var tsp *obs.Span
	if parent != nil {
		tsp = parent.Child("striped-chain-pair",
			obs.Str("chain1", chainName(t.names1)), obs.Str("chain2", chainName(t.names2)),
			obs.Int("stripes", stripes))
		defer tsp.End()
	}
	rm1 := ResolveChain(c1, t.names1)
	rm2 := ResolveChain(c2, t.names2)
	regions := symbolic.StripeRegions(stripes)
	res := make([]stripeResult, len(regions))

	var wg sync.WaitGroup
	// The merge factory and its encoding build on this goroutine while
	// the stripes run, overlapping the serial fraction of a striped
	// comparison with the stripe diffs. The localizer waits for the
	// merge, which builds it only when a stripe found a difference.
	var mainEnc *symbolic.RouteEncoding
	var mainErr error
	buildMain := func() {
		defer func() {
			if r := recover(); r != nil {
				mainErr = taskFailure(r, c1, c2, t)
				mainEnc = nil
			}
		}()
		e := symbolic.NewRouteEncodingInto(newArmedFactory(ctx, opts), c1, c2)
		e.F.BeginWork()
		mainEnc = e
	}
	for s := range regions {
		wg.Add(1)
		go func(s int, lo, hi uint32) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					res[s].err = taskFailure(r, c1, c2, t)
				}
			}()
			if err := ctxErr(ctx); err != nil {
				file, line := chainProvenance(c1, c2, t.names1, t.names2)
				res[s].err = &PairError{Pair: t.label(), Kind: ErrCanceled, File: file, Line: line, Err: err}
				return
			}
			enc := symbolic.NewRouteEncodingInto(newArmedFactory(ctx, opts), c1, c2)
			res[s].enc = enc
			enc.F.BeginWork()
			region := enc.RegionBDD(lo, hi)
			rsig := symbolic.RegionSig(lo, hi)
			p1, err := enc.EnumeratePathsRegion(c1, rm1, region, rsig)
			if err != nil {
				res[s].err = err
				return
			}
			p2, err := enc.EnumeratePathsRegion(c2, rm2, region, rsig)
			if err != nil {
				res[s].err = err
				return
			}
			res[s].diffs = semdiff.DiffRouteMapPaths(enc, p1, p2)
		}(s, regions[s][0], regions[s][1])
	}
	buildMain()
	wg.Wait()

	// account charges one stripe factory's work to the component and
	// recycles it (unless an unknown panic left its state suspect).
	account := func(s int) {
		enc := res[s].enc
		if enc == nil {
			return
		}
		st := enc.F.Stats()
		stats.BDDNodes += st.Nodes
		stats.CacheHits += st.CacheHits
		stats.CacheMisses += st.CacheMisses
		if !isInternalFailure(res[s].err) {
			putFactory(enc.F)
		}
		res[s].enc = nil
	}
	accountMain := func(err error) {
		if mainEnc == nil {
			return
		}
		st := mainEnc.F.Stats()
		stats.BDDNodes += st.Nodes
		stats.CacheHits += st.CacheHits
		stats.CacheMisses += st.CacheMisses
		if err == nil || !isInternalFailure(err) {
			putFactory(mainEnc.F)
		}
		mainEnc = nil
	}
	fail := func(err error) rmTaskResult {
		for j := range res {
			account(j)
		}
		accountMain(err)
		return rmTaskResult{err: err}
	}
	for s := range res {
		if res[s].err != nil {
			// Deterministic failure: the lowest-region error wins, exactly
			// the one a sequential region scan would hit first.
			return fail(res[s].err)
		}
	}
	if mainErr != nil {
		return fail(mainErr)
	}
	out := mergeStripedRouteMapDiffs(mainEnc, c1, c2, rm1, rm2, t, res, opts)
	for j := range res {
		account(j) // shards already transferred (or the merge failed)
	}
	accountMain(out.err)
	return out
}

// clauseIndex maps each clause of a resolved chain to its position.
func clauseIndex(rm *ir.RouteMap) map[*ir.RouteMapClause]int {
	m := make(map[*ir.RouteMapClause]int, len(rm.Clauses))
	for i, cl := range rm.Clauses {
		m[cl] = i
	}
	return m
}

// pathKey renders a path's identity — the indices of the clauses it
// takes — as a big-endian byte key whose ascending sort reproduces the
// sequential enumeration order: at the first index where two paths
// differ, the one that took the earlier clause was emitted first, and a
// path extending another's taken set (sentinel 0xFFFFFFFF > any index)
// was emitted before its prefix.
func pathKey(idx map[*ir.RouteMapClause]int, p symbolic.RoutePath) string {
	b := make([]byte, 0, 4*(len(p.Taken)+1))
	for _, cl := range p.Taken {
		i := idx[cl]
		b = append(b, byte(i>>24), byte(i>>16), byte(i>>8), byte(i))
	}
	b = append(b, 0xff, 0xff, 0xff, 0xff)
	return string(b)
}

// mergedRouteDiff accumulates one class pair's input set across stripes.
type mergedRouteDiff struct {
	k1, k2 string
	d      semdiff.RouteMapDiff
}

// mergeStripedRouteMapDiffs rebuilds the sequential report from the
// per-stripe shards: transfer every shard's input set onto the main
// factory, Or shards of the same class pair together, sort pairs into
// the sequential emission order, and localize.
func mergeStripedRouteMapDiffs(mainEnc *symbolic.RouteEncoding, c1, c2 *ir.Config, rm1, rm2 *ir.RouteMap, t rmTask, res []stripeResult, opts Options) (out rmTaskResult) {
	defer func() {
		if r := recover(); r != nil {
			out = rmTaskResult{err: taskFailure(r, c1, c2, t)}
		}
	}()
	idx1, idx2 := clauseIndex(rm1), clauseIndex(rm2)
	merged := map[string]*mergedRouteDiff{}
	var order []*mergedRouteDiff
	for s := range res {
		memo := map[bdd.Node]bdd.Node{}
		for _, d := range res[s].diffs {
			in := bdd.Transfer(mainEnc.F, res[s].enc.F, d.Inputs, memo)
			k1, k2 := pathKey(idx1, d.Path1), pathKey(idx2, d.Path2)
			key := k1 + k2 // unambiguous: k1 self-terminates with the sentinel
			if m, ok := merged[key]; ok {
				m.d.Inputs = mainEnc.F.Or(m.d.Inputs, in)
				continue
			}
			d.Inputs = in
			// The stripe-local guards die with the stripe factory; the
			// report only reads the paths' Accept/Transform/Terminal.
			d.Path1.Guard, d.Path2.Guard = bdd.False, bdd.False
			m := &mergedRouteDiff{k1: k1, k2: k2, d: d}
			merged[key] = m
			order = append(order, m)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].k1 != order[j].k1 {
			return order[i].k1 < order[j].k1
		}
		return order[i].k2 < order[j].k2
	})

	if len(order) == 0 {
		return rmTaskResult{}
	}
	loc := headerloc.NewRouteLocalizer(mainEnc, c1, c2)
	diffs := make([]localizedRouteDiff, 0, len(order))
	for _, m := range order {
		diffs = append(diffs, localizeRouteDiff(loc, m.d, opts, sideKey{path: m.k1}, sideKey{path: m.k2}))
	}
	return rmTaskResult{diffs: diffs}
}

// aclStripeResult is one region's share of a striped ACL comparison.
type aclStripeResult struct {
	enc   *symbolic.PacketEncoding
	diffs []semdiff.ACLDiff
	err   error
}

// runStripedACLPair compares one oversized ACL pair partitioned across
// source-address regions: per-stripe diff on private factories, then a
// deterministic line-order merge and localization on a fresh main
// factory. Returns the pair's localized diffs, each one's two line
// positions, and the BDD work summed over every factory used.
func runStripedACLPair(ctx context.Context, name string, acl1, acl2 *ir.ACL, stripes int, opts Options) (out []ACLPairDiff, keys [][2]int, work bdd.Stats, err error) {
	sigs := symbolic.NewACLSigTable(acl1, acl2)
	// Warm the signature memo before fan-out: LineSig caches lazily, and
	// a fully-populated table is read-only — safe to share across stripes.
	for _, l := range acl1.Lines {
		sigs.LineSig(l)
	}
	for _, l := range acl2.Lines {
		sigs.LineSig(l)
	}
	w := sigs.SrcWindow()
	regions := symbolic.StripeRegions(stripes)
	res := make([]aclStripeResult, len(regions))

	var wg sync.WaitGroup
	for s := range regions {
		wg.Add(1)
		go func(s int, lo, hi uint32) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					res[s].err = aclPairFailure(r, name, acl1)
				}
			}()
			if cerr := ctxErr(ctx); cerr != nil {
				res[s].err = &PairError{Pair: "acl " + name, Kind: ErrCanceled, Err: cerr}
				return
			}
			enc := symbolic.NewPacketEncodingInto(newArmedFactory(ctx, opts))
			res[s].enc = enc
			enc.F.BeginWork()
			region := enc.SrcRegionBDD(w, lo, hi)
			rsig := symbolic.RegionSig(lo, hi)
			res[s].diffs = semdiff.DiffACLsRegion(enc, acl1, acl2, region, rsig, sigs)
		}(s, regions[s][0], regions[s][1])
	}
	wg.Wait()

	account := func(s int) {
		enc := res[s].enc
		if enc == nil {
			return
		}
		st := enc.F.Stats()
		work.Nodes += st.Nodes
		work.CacheHits += st.CacheHits
		work.CacheMisses += st.CacheMisses
		if res[s].err == nil || ErrKind(res[s].err) != "internal" {
			putFactory(enc.F)
		}
		res[s].enc = nil
	}
	for s := range res {
		if res[s].err != nil {
			for j := range res {
				account(j)
			}
			return nil, nil, work, res[s].err
		}
	}

	func() {
		defer func() {
			if r := recover(); r != nil {
				err = aclPairFailure(r, name, acl1)
			}
		}()
		mainEnc := symbolic.NewPacketEncodingInto(newArmedFactory(ctx, opts))
		defer func() {
			st := mainEnc.F.Stats()
			work.Nodes += st.Nodes
			work.CacheHits += st.CacheHits
			work.CacheMisses += st.CacheMisses
			if err == nil || ErrKind(err) != "internal" {
				putFactory(mainEnc.F)
			}
		}()
		mainEnc.F.BeginWork()

		// A class pair is identified by its two line positions; the
		// implicit-deny tail sorts last, matching enumeration order.
		lineIdx := func(acl *ir.ACL) map[*ir.ACLLine]int {
			m := make(map[*ir.ACLLine]int, len(acl.Lines))
			for i, l := range acl.Lines {
				m[l] = i
			}
			return m
		}
		idx1, idx2 := lineIdx(acl1), lineIdx(acl2)
		pos := func(idx map[*ir.ACLLine]int, l *ir.ACLLine) int {
			if l == nil {
				return 1 << 30
			}
			return idx[l]
		}
		type mergedACLDiff struct {
			i1, i2 int
			d      semdiff.ACLDiff
		}
		merged := map[[2]int]*mergedACLDiff{}
		var order []*mergedACLDiff
		for s := range res {
			memo := map[bdd.Node]bdd.Node{}
			for _, d := range res[s].diffs {
				in := bdd.Transfer(mainEnc.F, res[s].enc.F, d.Inputs, memo)
				i1, i2 := pos(idx1, d.Path1.Line), pos(idx2, d.Path2.Line)
				if m, ok := merged[[2]int{i1, i2}]; ok {
					m.d.Inputs = mainEnc.F.Or(m.d.Inputs, in)
					continue
				}
				d.Inputs = in
				d.Path1.Guard, d.Path2.Guard = bdd.False, bdd.False
				m := &mergedACLDiff{i1: i1, i2: i2, d: d}
				merged[[2]int{i1, i2}] = m
				order = append(order, m)
			}
			account(s)
		}
		sort.Slice(order, func(i, j int) bool {
			if order[i].i1 != order[j].i1 {
				return order[i].i1 < order[j].i1
			}
			return order[i].i2 < order[j].i2
		})
		if len(order) == 0 {
			return
		}
		loc := headerloc.NewACLLocalizer(mainEnc, acl1, acl2)
		for _, m := range order {
			out = append(out, ACLPairDiff{
				Name1: name, Name2: name,
				Localization: loc.Localize(m.d.Inputs),
				Action1:      describeACLAction(m.d.Path1.Accept),
				Action2:      describeACLAction(m.d.Path2.Accept),
				Text1:        aclPathText(m.d.Path1),
				Text2:        aclPathText(m.d.Path2),
			})
			keys = append(keys, [2]int{m.i1, m.i2})
		}
	}()
	if err != nil {
		return nil, nil, work, err
	}
	return out, keys, work, nil
}
