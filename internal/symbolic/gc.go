package symbolic

import "repro/internal/bdd"

// GC runs unique-table garbage collection on the encoding's factory
// (bdd.GC), rooting everything the encoding itself still needs — the
// WellFormed and PrefixUniverse constraints and every memoized
// range/list BDD — plus the caller's extra roots (a policy cache passes
// its compiled path guards). All memo tables are reseated to the
// compacted references, and extra is remapped in place and returned.
// Every other Node derived from this encoding is invalid afterwards.
//
// Rooting the memo tables (rather than flushing them) is deliberate:
// the memos are the reusable fraction of the arena — the list and range
// BDDs the next comparison recalls — while the reclaimed garbage is the
// product intermediates, dead path guards, and subtracted sets a diff
// leaves behind.
func (e *RouteEncoding) GC(extra []bdd.Node) []bdd.Node {
	roots := make([]bdd.Node, 0,
		2+len(e.lenRange)+len(e.prefixRanges)+len(e.prefixLists)+
			len(e.nextHopLists)+len(e.commLists)+len(e.asPathLists)+len(extra))
	reseat := make([]func(bdd.Node), 0, cap(roots))
	add := func(n bdd.Node, set func(bdd.Node)) {
		roots = append(roots, n)
		reseat = append(reseat, set)
	}
	add(e.WellFormed, func(n bdd.Node) { e.WellFormed = n })
	add(e.PrefixUniverse, func(n bdd.Node) { e.PrefixUniverse = n })
	for k, v := range e.lenRange {
		k := k
		add(v, func(n bdd.Node) { e.lenRange[k] = n })
	}
	for k, v := range e.prefixRanges {
		k := k
		add(v, func(n bdd.Node) { e.prefixRanges[k] = n })
	}
	for k, v := range e.prefixLists {
		k := k
		add(v, func(n bdd.Node) { e.prefixLists[k] = n })
	}
	for k, v := range e.nextHopLists {
		k := k
		add(v, func(n bdd.Node) { e.nextHopLists[k] = n })
	}
	for k, v := range e.commLists {
		k := k
		add(v, func(n bdd.Node) { e.commLists[k] = n })
	}
	for k, v := range e.asPathLists {
		k := k
		add(v, func(n bdd.Node) { e.asPathLists[k] = n })
	}
	for i := range extra {
		i := i
		add(extra[i], func(n bdd.Node) { extra[i] = n })
	}
	for i, n := range e.F.GC(roots) {
		reseat[i](n)
	}
	return extra
}
