// Package semdiff implements Campion's SemanticDiff algorithm (§3.1):
// each of a pair of components (route maps or ACLs) is partitioned into
// path equivalence classes, and every intersecting pair of classes with
// differing actions is reported as a behavioral difference
// (i, a₁, a₂, t₁, t₂) — the impacted input set, the two actions, and the
// two text locations.
package semdiff

import (
	"repro/internal/bdd"
	"repro/internal/ir"
	"repro/internal/symbolic"
)

// RouteMapDiff is one behavioral difference between two route maps.
type RouteMapDiff struct {
	// Inputs is the set of route advertisements treated differently
	// (λ₁ ∩ λ₂ in the paper), as a BDD over the shared route encoding.
	Inputs bdd.Node
	// Path1 and Path2 are the equivalence classes involved; their Accept,
	// Transform, and Terminal fields carry the actions and text.
	Path1, Path2 symbolic.RoutePath
	// Index1 and Index2 are the classes' positions in the path lists the
	// product walked. Differences come out in (Index1, Index2) order.
	Index1, Index2 int
}

// pathActionsDiffer reports whether two route-map classes act differently:
// one accepts and the other rejects, or both accept with different
// attribute transformations.
func pathActionsDiffer(p1, p2 *symbolic.RoutePath) bool {
	if p1.Accept != p2.Accept {
		return true
	}
	if !p1.Accept {
		return false
	}
	return !p1.Transform.Equal(p2.Transform)
}

// DiffRouteMaps reports every behavioral difference between two route
// maps under their respective configurations. The two configurations must
// share the given encoding (constructed over both).
func DiffRouteMaps(enc *symbolic.RouteEncoding, cfg1 *ir.Config, rm1 *ir.RouteMap, cfg2 *ir.Config, rm2 *ir.RouteMap) ([]RouteMapDiff, error) {
	return DiffRouteMapsLimit(enc, cfg1, rm1, cfg2, rm2, 0)
}

// DiffRouteMapsLimit is DiffRouteMaps that stops as soon as limit
// differences have been found (limit <= 0 means no bound). The repair
// search drives it with limit 1 as an emptiness probe and with the
// current best residual count as a scoring cutoff — a candidate already
// worse than the best does not need its remaining class product.
func DiffRouteMapsLimit(enc *symbolic.RouteEncoding, cfg1 *ir.Config, rm1 *ir.RouteMap, cfg2 *ir.Config, rm2 *ir.RouteMap, limit int) ([]RouteMapDiff, error) {
	paths1, err := enc.EnumeratePaths(cfg1, rm1)
	if err != nil {
		return nil, err
	}
	paths2, err := enc.EnumeratePaths(cfg2, rm2)
	if err != nil {
		return nil, err
	}
	return diffRouteMapPaths(enc, paths1, paths2, limit), nil
}

// DiffRouteMapPaths is DiffRouteMaps over already-compiled path
// equivalence classes. Both path sets must live on enc's factory; callers
// that cache compiled chains (core's cross-pair compiled-policy cache)
// enter here to skip re-enumeration.
func DiffRouteMapPaths(enc *symbolic.RouteEncoding, paths1, paths2 []symbolic.RoutePath) []RouteMapDiff {
	return diffRouteMapPaths(enc, paths1, paths2, 0)
}

func diffRouteMapPaths(enc *symbolic.RouteEncoding, paths1, paths2 []symbolic.RoutePath, limit int) []RouteMapDiff {
	var diffs []RouteMapDiff
	// Pointer iteration: RoutePath is a large struct and the product
	// visits |paths1|×|paths2| cells, so by-value ranging would copy two
	// structs per cell. The signature test runs first — two word ops that
	// prove most intersections empty before any field of the paths is
	// compared (symbolic.Sig); both filters are exact, so the output is
	// unchanged.
	for i := range paths1 {
		p1 := &paths1[i]
		for j := range paths2 {
			p2 := &paths2[j]
			if !p1.Sig.Overlap(p2.Sig) {
				continue
			}
			if !pathActionsDiffer(p1, p2) {
				continue
			}
			inter := enc.F.And(p1.Guard, p2.Guard)
			if inter == bdd.False {
				continue
			}
			diffs = append(diffs, RouteMapDiff{Inputs: inter, Path1: *p1, Path2: *p2, Index1: i, Index2: j})
			if limit > 0 && len(diffs) >= limit {
				return diffs
			}
		}
	}
	return diffs
}

// EquivalentRouteMaps reports whether the two route maps are behaviorally
// identical (no differences).
func EquivalentRouteMaps(enc *symbolic.RouteEncoding, cfg1 *ir.Config, rm1 *ir.RouteMap, cfg2 *ir.Config, rm2 *ir.RouteMap) (bool, error) {
	d, err := DiffRouteMaps(enc, cfg1, rm1, cfg2, rm2)
	return len(d) == 0, err
}

// UnionRouteMapInputs returns the union of the diffs' input sets — the
// complete set of route advertisements the two maps treat differently.
// The differential harness checks concrete disagreements against this
// set: completeness demands every concretely-differing route lie inside
// it, soundness demands every route inside it differ concretely.
func UnionRouteMapInputs(enc *symbolic.RouteEncoding, diffs []RouteMapDiff) bdd.Node {
	u := bdd.False
	for _, d := range diffs {
		u = enc.F.Or(u, d.Inputs)
	}
	return u
}

// ACLDiff is one behavioral difference between two ACLs.
type ACLDiff struct {
	Inputs       bdd.Node
	Path1, Path2 symbolic.ACLPath
	// Index1 and Index2 are the classes' positions in the two ACLs' path
	// enumerations. Differences come out in (Index1, Index2) order.
	Index1, Index2 int
}

// DiffACLs reports every behavioral difference between two ACLs. Because
// ACL actions are binary, the space of differing packets is exactly
// Accept₁ ⊕ Accept₂; the pairwise class product is pruned to the classes
// that intersect it, keeping the check near-linear for large, mostly
// equal ACLs (§5.4 scalability).
func DiffACLs(enc *symbolic.PacketEncoding, acl1, acl2 *ir.ACL) []ACLDiff {
	diffSet := enc.F.Xor(enc.AcceptSet(acl1), enc.AcceptSet(acl2))
	if diffSet == bdd.False {
		return nil
	}
	paths1 := enc.EnumerateACLPaths(acl1)
	paths2 := enc.EnumerateACLPaths(acl2)

	// Guard signatures (symbolic.Sig): a line's class guard is a subset
	// of its match set, so disjoint line signatures prove an empty
	// intersection and skip the BDD work. The filter is exact.
	sigs := symbolic.NewACLSigTable(acl1, acl2)

	// Restrict the second component's classes to the differing space once.
	var hot2 []symbolic.ACLPath
	var sig2 []symbolic.Sig
	var idx2 []int
	for j, p2 := range paths2 {
		g := enc.F.And(p2.Guard, diffSet)
		if g == bdd.False {
			continue
		}
		hot2 = append(hot2, symbolic.ACLPath{Guard: g, Accept: p2.Accept, Line: p2.Line})
		sig2 = append(sig2, sigs.LineSig(p2.Line))
		idx2 = append(idx2, j)
	}

	var diffs []ACLDiff
	for i1, p1 := range paths1 {
		s1 := sigs.LineSig(p1.Line)
		d1 := enc.F.And(p1.Guard, diffSet)
		if d1 == bdd.False {
			continue
		}
		for i := range hot2 {
			p2 := hot2[i]
			if !s1.Overlap(sig2[i]) {
				continue
			}
			inter := enc.F.And(d1, p2.Guard)
			if inter == bdd.False {
				continue
			}
			// Within diffSet, intersecting classes necessarily act
			// differently; record with the original (unrestricted)
			// class actions and lines.
			diffs = append(diffs, ACLDiff{Inputs: inter, Path1: p1, Path2: p2, Index1: i1, Index2: idx2[i]})
			d1 = enc.F.Diff(d1, inter)
			if d1 == bdd.False {
				break
			}
		}
	}
	return diffs
}

// DiffACLsRegion is DiffACLs restricted to one region of packet space
// (the striped intra-pair engine's unit of work). sigs must cover both
// ACLs and regionSig must be a valid signature of the region. Within the
// region the reported pairs and their intersections equal
// "the unrestricted pair intersections ∧ region": class guards of one
// ACL are pairwise disjoint, so the subtract/early-break of DiffACLs
// never changes which pairs report, only how fast the scan stops — the
// striped merge can therefore Or the per-region inputs back together
// exactly.
func DiffACLsRegion(enc *symbolic.PacketEncoding, acl1, acl2 *ir.ACL, region bdd.Node, regionSig symbolic.Sig, sigs *symbolic.ACLSigTable) []ACLDiff {
	diffSet := enc.F.Xor(
		enc.AcceptSetRegion(acl1, region, regionSig, sigs),
		enc.AcceptSetRegion(acl2, region, regionSig, sigs))
	if diffSet == bdd.False {
		return nil
	}
	paths1 := enc.EnumerateACLPathsRegion(acl1, region, regionSig, sigs)
	paths2 := enc.EnumerateACLPathsRegion(acl2, region, regionSig, sigs)

	var hot2 []symbolic.ACLPath
	var sig2 []symbolic.Sig
	var idx2 []int
	for j, p2 := range paths2 {
		g := enc.F.And(p2.Guard, diffSet)
		if g == bdd.False {
			continue
		}
		hot2 = append(hot2, symbolic.ACLPath{Guard: g, Accept: p2.Accept, Line: p2.Line})
		sig2 = append(sig2, sigs.LineSig(p2.Line))
		idx2 = append(idx2, j)
	}

	var diffs []ACLDiff
	for i1, p1 := range paths1 {
		s1 := sigs.LineSig(p1.Line)
		d1 := enc.F.And(p1.Guard, diffSet)
		if d1 == bdd.False {
			continue
		}
		for i := range hot2 {
			p2 := hot2[i]
			if !s1.Overlap(sig2[i]) {
				continue
			}
			inter := enc.F.And(d1, p2.Guard)
			if inter == bdd.False {
				continue
			}
			diffs = append(diffs, ACLDiff{Inputs: inter, Path1: p1, Path2: p2, Index1: i1, Index2: idx2[i]})
			d1 = enc.F.Diff(d1, inter)
			if d1 == bdd.False {
				break
			}
		}
	}
	return diffs
}

// DiffACLsNaive is the unpruned quadratic product, kept as the ablation
// baseline for the pruning optimization (see DESIGN.md).
func DiffACLsNaive(enc *symbolic.PacketEncoding, acl1, acl2 *ir.ACL) []ACLDiff {
	paths1 := enc.EnumerateACLPaths(acl1)
	paths2 := enc.EnumerateACLPaths(acl2)
	var diffs []ACLDiff
	for i1, p1 := range paths1 {
		for i2, p2 := range paths2 {
			if p1.Accept == p2.Accept {
				continue
			}
			inter := enc.F.And(p1.Guard, p2.Guard)
			if inter == bdd.False {
				continue
			}
			diffs = append(diffs, ACLDiff{Inputs: inter, Path1: p1, Path2: p2, Index1: i1, Index2: i2})
		}
	}
	return diffs
}

// UnionACLInputs returns the union of the diffs' input sets — the
// complete set of packets the two ACLs treat differently.
func UnionACLInputs(enc *symbolic.PacketEncoding, diffs []ACLDiff) bdd.Node {
	u := bdd.False
	for _, d := range diffs {
		u = enc.F.Or(u, d.Inputs)
	}
	return u
}

// EquivalentACLs reports whether two ACLs accept exactly the same packets.
func EquivalentACLs(enc *symbolic.PacketEncoding, acl1, acl2 *ir.ACL) bool {
	return enc.F.Xor(enc.AcceptSet(acl1), enc.AcceptSet(acl2)) == bdd.False
}
