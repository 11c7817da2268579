package campion

import (
	"context"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/ir"
	"repro/internal/obs"
)

// Component memo splicing. Campion compares corresponding components
// independently (§3, Table 1), so a route-map or ACL SemanticDiff result
// depends on the two sides' component content alone. A pair that misses
// the report store looks each semantic component up in the store's
// component memo under both sides' digests (fleet.Digests), runs core
// only for the components it did not recall, and splices the recalled
// parts, respanned to the pair's files, into the report. DESIGN.md's
// "Component memo" section states the rules.

// memoComponents are the components the memo serves: the SemanticDiff
// checks. The structural checks are cheap and always recomputed.
var memoComponents = [...]core.Component{core.ComponentRouteMaps, core.ComponentACLs}

// componentCounts tallies semantic components per pair: recalled from
// the component memo, or computed by core.
type componentCounts struct{ recalled, computed int }

func (n *componentCounts) add(o componentCounts) {
	n.recalled += o.recalled
	n.computed += o.computed
}

// componentMemo is one batch's view of a store's component memo. A nil
// *componentMemo recalls and stores nothing.
type componentMemo struct {
	store   *fleet.Store
	optsFP  string
	digests sync.Map // *ir.Config -> fleet.ComponentDigests
}

func (m *componentMemo) digestsOf(cfg *ir.Config) fleet.ComponentDigests {
	if d, ok := m.digests.Load(cfg); ok {
		return d.(fleet.ComponentDigests)
	}
	d, _ := m.digests.LoadOrStore(cfg, fleet.Digests(cfg))
	return d.(fleet.ComponentDigests)
}

func digestFor(d fleet.ComponentDigests, c core.Component) string {
	if c == core.ComponentRouteMaps {
		return d.RouteMaps
	}
	return d.ACLs
}

// componentEnabled reads Options.Components as core does: empty means
// every component.
func componentEnabled(opts core.Options, c core.Component) bool {
	return len(opts.Components) == 0 || slices.Contains(opts.Components, c)
}

// copyComponent copies component c's report fields from src to dst: the
// deduplicated route-map differences, or the ACL differences and both
// unmatched-ACL lists. Slices are shared, not copied.
func copyComponent(dst, src *core.Report, c core.Component) {
	switch c {
	case core.ComponentRouteMaps:
		dst.RouteMapDiffs = src.RouteMapDiffs
	case core.ComponentACLs:
		dst.ACLDiffs = src.ACLDiffs
		dst.UnmatchedACLs1, dst.UnmatchedACLs2 = src.UnmatchedACLs1, src.UnmatchedACLs2
	}
}

// componentPart is a report holding only component c's fields of rep.
func componentPart(rep *core.Report, c core.Component) *core.Report {
	part := &core.Report{}
	copyComponent(part, rep, c)
	return part
}

// diff compares (c1, c2) as core.DiffContext does or, when joint, both
// orientations as core.DiffBoth does, recalling every memoized semantic
// component instead of computing it. A joint pass recalls a component
// only when both orientations are memoized. A successful pass memoizes
// the components it computed: the forward part, and the reverse part
// when the pass derived the reverse report. mirror names the (c2, c1)
// pair in the journal.
func (m *componentMemo) diff(ctx context.Context, c1, c2 *ir.Config, opts core.Options, joint bool, mirror string) (fwd, rev *core.Report, n componentCounts, err error) {
	type recalled struct {
		c        core.Component
		fwd, rev *core.Report
	}
	var hits []recalled
	var computed []core.Component
	var d1, d2 fleet.ComponentDigests
	if m != nil {
		d1, d2 = m.digestsOf(c1), m.digestsOf(c2)
	}
	for _, c := range memoComponents {
		if !componentEnabled(opts, c) {
			continue
		}
		if m != nil {
			k1, k2 := digestFor(d1, c), digestFor(d2, c)
			hit := recalled{c: c}
			var ok bool
			hit.fwd, ok = m.store.GetComponent(c, m.optsFP, k1, k2)
			if ok && joint {
				hit.rev, ok = m.store.GetComponent(c, m.optsFP, k2, k1)
			}
			if ok {
				hits = append(hits, hit)
				continue
			}
		}
		computed = append(computed, c)
	}

	inner := opts
	if len(hits) > 0 {
		inner.Components = nil
		for _, c := range core.AllComponents {
			if componentEnabled(opts, c) && !slices.ContainsFunc(hits, func(h recalled) bool { return h.c == c }) {
				inner.Components = append(inner.Components, c)
			}
		}
	}
	switch {
	case len(hits) > 0 && len(inner.Components) == 0:
		// Every enabled component was recalled. Core must not run: to it,
		// an empty Components means all of them.
		fwd = &core.Report{Config1: c1, Config2: c2}
		if joint {
			rev = &core.Report{Config1: c2, Config2: c1}
		}
	case joint:
		fwd, rev, err = core.DiffBoth(ctx, c1, c2, inner)
	default:
		fwd, err = core.DiffContext(ctx, c1, c2, inner)
	}
	if err != nil {
		return nil, nil, componentCounts{}, err
	}

	cached := func(pair string, c core.Component) {
		opts.Journal.Emit(obs.Event{Type: obs.EvComponent, Pair: pair, Component: string(c),
			Kind: core.CheckKind(c), Op: "cached"})
	}
	for _, h := range hits {
		copyComponent(fwd, fleet.RespanReport(h.fwd, c1, c2), h.c)
		n.recalled++
		cached(opts.JournalPair, h.c)
		if rev != nil {
			copyComponent(rev, fleet.RespanReport(h.rev, c2, c1), h.c)
			n.recalled++
			cached(mirror, h.c)
		}
	}
	for _, c := range computed {
		n.computed++
		if rev != nil {
			n.computed++
		}
		if m == nil {
			continue
		}
		k1, k2 := digestFor(d1, c), digestFor(d2, c)
		m.store.PutComponent(c, m.optsFP, k1, k2, componentPart(fwd, c))
		if rev != nil {
			m.store.PutComponent(c, m.optsFP, k2, k1, componentPart(rev, c))
		}
	}
	return fwd, rev, n, nil
}
