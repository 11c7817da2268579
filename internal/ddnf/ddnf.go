// Package ddnf implements the prefix-range DAG of Campion's
// HeaderLocalize algorithm (§3.2). The structure is analogous to the ddNF
// data structure for packet header spaces, but nodes are labeled with
// prefix ranges: the root is the universe (0.0.0.0/0, 0-32), labels are
// closed under intersection, and edges encode immediate containment.
// GetMatch traverses the DAG to express an input set S as a minimal union
// of terms "R − X₁ − … − Xₖ" over the configuration's own prefix ranges.
package ddnf

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/bdd"
	"repro/internal/netaddr"
)

// Node is a DAG node labeled with a prefix range.
type Node struct {
	Range    netaddr.PrefixRange
	Children []*Node
}

// DAG is the prefix-range containment DAG.
type DAG struct {
	Root  *Node
	Nodes []*Node
}

// Build constructs the DAG from the prefix ranges extracted from a pair
// of configurations: the universe is added, the set is closed under
// intersection, duplicates (semantic) are removed, and immediate
// containment edges are installed (properties 1–4 in the paper).
func Build(ranges []netaddr.PrefixRange) *DAG {
	labels := closeUnderIntersection(ranges)
	nodes := make([]*Node, len(labels))
	for i, r := range labels {
		nodes[i] = &Node{Range: r}
	}
	// Immediate containment: n is a child of m iff n ⊂ m strictly and no
	// intermediate node sits between them.
	strictlyContains := func(a, b netaddr.PrefixRange) bool {
		return a.ContainsRange(b) && !b.ContainsRange(a)
	}
	for _, m := range nodes {
		for _, n := range nodes {
			if m == n || !strictlyContains(m.Range, n.Range) {
				continue
			}
			immediate := true
			for _, k := range nodes {
				if k == m || k == n {
					continue
				}
				if strictlyContains(m.Range, k.Range) && strictlyContains(k.Range, n.Range) {
					immediate = false
					break
				}
			}
			if immediate {
				m.Children = append(m.Children, n)
			}
		}
	}
	var root *Node
	for _, n := range nodes {
		if n.Range.Equal(netaddr.Universe) {
			root = n
			break
		}
	}
	for _, n := range nodes {
		sort.Slice(n.Children, func(i, j int) bool {
			return n.Children[i].Range.Compare(n.Children[j].Range) < 0
		})
	}
	return &DAG{Root: root, Nodes: nodes}
}

// closeUnderIntersection adds the universe, closes the set under pairwise
// intersection, and removes empty and duplicate ranges. The result is
// sorted for determinism.
func closeUnderIntersection(ranges []netaddr.PrefixRange) []netaddr.PrefixRange {
	seen := map[netaddr.PrefixRange]bool{}
	var out []netaddr.PrefixRange
	add := func(r netaddr.PrefixRange) bool {
		if r.IsEmpty() || seen[r] {
			return false
		}
		seen[r] = true
		out = append(out, r)
		return true
	}
	add(netaddr.Universe)
	for _, r := range ranges {
		add(r)
	}
	for changed := true; changed; {
		changed = false
		n := len(out)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if inter, ok := out[i].Intersect(out[j]); ok {
					if add(inter) {
						changed = true
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// Term is one element of GetMatch's result: the range Include minus the
// nested terms Exclude. After Simplify, Exclude entries have no further
// nesting.
type Term struct {
	Include netaddr.PrefixRange
	Exclude []Term
}

// FlatTerm is a simplified term: a range minus a list of plain ranges.
type FlatTerm struct {
	Include netaddr.PrefixRange
	Exclude []netaddr.PrefixRange
}

// SetOps supplies the BDD semantics GetMatch needs: the symbolic set for
// a range, and the universe of valid (well-formed) points. The same DAG
// logic thereby serves both route-advertisement prefix localization and
// ACL address localization.
type SetOps struct {
	F *bdd.Factory
	// RangeBDD returns the well-formed points belonging to the range.
	RangeBDD func(netaddr.PrefixRange) bdd.Node
	// Universe is the BDD of all well-formed points.
	Universe bdd.Node
}

func (o SetOps) contains(sub, super bdd.Node) bool {
	return o.F.Implies(sub, super)
}

// remainder computes node.Range minus its children's ranges, symbolically.
func (o SetOps) remainder(n *Node) bdd.Node {
	r := o.RangeBDD(n.Range)
	for _, c := range n.Children {
		r = o.F.Diff(r, o.RangeBDD(c.Range))
	}
	return r
}

// GetMatch expresses S (a BDD subset of the universe) in terms of the
// DAG's prefix ranges, following the paper's recursive algorithm. The
// boolean result reports whether the representation is exact; it can be
// false when S was built from constructs outside the range vocabulary
// (e.g. non-contiguous wildcard masks), in which case the terms
// under-approximate S.
func (d *DAG) GetMatch(o SetOps, s bdd.Node) ([]Term, bool) {
	if d.Root == nil {
		return nil, s == bdd.False
	}
	s = o.F.And(s, o.Universe)
	terms := d.getMatch(o, s, d.Root)
	// Exactness check: the union of the terms must equal S.
	union := bdd.False
	for _, t := range terms {
		union = o.F.Or(union, d.termBDD(o, t))
	}
	return terms, union == s
}

func (d *DAG) getMatch(o SetOps, s bdd.Node, node *Node) []Term {
	r := o.F.And(o.RangeBDD(node.Range), o.Universe)
	if len(node.Children) == 0 {
		if r != bdd.False && o.contains(r, s) {
			return []Term{{Include: node.Range}}
		}
		return nil
	}
	rem := o.F.And(o.remainder(node), o.Universe)
	if rem != bdd.False && o.contains(rem, s) {
		notS := o.F.And(o.F.Not(s), o.Universe)
		var nonmatches []Term
		for _, c := range node.Children {
			nonmatches = append(nonmatches, d.getMatch(o, notS, c)...)
		}
		return []Term{{Include: node.Range, Exclude: dedupeTerms(nonmatches)}}
	}
	var out []Term
	for _, c := range node.Children {
		out = append(out, d.getMatch(o, s, c)...)
	}
	return dedupeTerms(out)
}

// dedupeTerms removes duplicate terms (a node reachable through two
// parents is visited twice).
func dedupeTerms(ts []Term) []Term {
	var out []Term
	for _, t := range ts {
		dup := false
		for _, u := range out {
			if termsEqual(t, u) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, t)
		}
	}
	return out
}

func termsEqual(a, b Term) bool {
	if !a.Include.Equal(b.Include) || len(a.Exclude) != len(b.Exclude) {
		return false
	}
	for i := range a.Exclude {
		if !termsEqual(a.Exclude[i], b.Exclude[i]) {
			return false
		}
	}
	return true
}

// termBDD evaluates a (possibly nested) term symbolically.
func (d *DAG) termBDD(o SetOps, t Term) bdd.Node {
	n := o.F.And(o.RangeBDD(t.Include), o.Universe)
	for _, x := range t.Exclude {
		n = o.F.Diff(n, d.termBDD(o, x))
	}
	return n
}

// Simplify removes nested differences in a single pass, as in the paper:
// R − (A − B) becomes (R − A) ∪ B. The identity holds because GetMatch
// only nests along DAG containment chains (B ⊆ A ⊆ R).
func Simplify(terms []Term) []FlatTerm {
	var out []FlatTerm
	var walk func(t Term)
	walk = func(t Term) {
		flat := FlatTerm{Include: t.Include}
		for _, x := range t.Exclude {
			flat.Exclude = append(flat.Exclude, x.Include)
			for _, nested := range x.Exclude {
				walk(nested)
			}
		}
		sort.Slice(flat.Exclude, func(i, j int) bool {
			return flat.Exclude[i].Compare(flat.Exclude[j]) < 0
		})
		out = append(out, flat)
	}
	for _, t := range terms {
		walk(t)
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].Include.Compare(out[j].Include) < 0
	})
	return out
}

// String renders a flat term as "R − X₁ − X₂".
func (t FlatTerm) String() string {
	var b strings.Builder
	b.WriteString(t.Include.String())
	for _, x := range t.Exclude {
		b.WriteString(" − ")
		b.WriteString(x.String())
	}
	return b.String()
}

// Dot renders the DAG in Graphviz dot format, for visual inspection of
// Figure 3-style structures.
func (d *DAG) Dot() string {
	var b strings.Builder
	b.WriteString("digraph ddnf {\n  rankdir=TB;\n")
	id := map[*Node]int{}
	for i, n := range d.Nodes {
		id[n] = i
		fmt.Fprintf(&b, "  n%d [label=%q];\n", i, n.Range.String())
	}
	for _, n := range d.Nodes {
		for _, c := range n.Children {
			fmt.Fprintf(&b, "  n%d -> n%d;\n", id[n], id[c])
		}
	}
	b.WriteString("}\n")
	return b.String()
}
