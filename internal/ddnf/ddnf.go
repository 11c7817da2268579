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
	id       int // position in DAG.Nodes: the Matcher's memo slot
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
//
// The edges are the Hasse diagram of strict containment: a node's
// parents are the minimal elements of its strict ancestors. A range can
// only be contained by ranges whose prefix is its own or an ancestor of
// it in the address trie, so each node's candidates are the labels of
// its prefix and of that prefix's chain of ancestors (as the ddNF paper
// inserts a label by walking down from the root), never the whole set,
// and no (parent, child, intermediate) triple is tested. Ranges carry
// canonical prefixes (host bits zero), as the parsers produce them.
func Build(ranges []netaddr.PrefixRange) *DAG {
	groups := closeUnderIntersection(ranges)
	var nodes []*Node
	first := make([]int, len(groups)) // each group's first node id
	for g, gr := range groups {
		first[g] = len(nodes)
		for _, r := range gr.labels {
			nodes = append(nodes, &Node{Range: r, id: len(nodes)})
		}
	}
	var anc []int
	for g, gr := range groups {
		for k, r := range gr.labels {
			anc = anc[:0]
			for k2, r2 := range gr.labels {
				if k2 != k && r2.ContainsRange(r) {
					anc = append(anc, first[g]+k2) // same prefix: a wider length interval
				}
			}
			for a := gr.parent; a >= 0; a = groups[a].parent {
				for k2, r2 := range groups[a].labels {
					if r2.ContainsRange(r) {
						anc = append(anc, first[a]+k2)
					}
				}
			}
			for _, j := range anc {
				immediate := true
				for _, k2 := range anc {
					if k2 != j && nodes[j].Range.ContainsRange(nodes[k2].Range) {
						immediate = false
						break
					}
				}
				if immediate {
					// Ids ascend, so children stay in label (Compare) order.
					nodes[j].Children = append(nodes[j].Children, nodes[first[g]+k])
				}
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
	return &DAG{Root: root, Nodes: nodes}
}

// group is the labels sharing one prefix in the closed label set.
type group struct {
	prefix netaddr.Prefix
	labels []netaddr.PrefixRange // sorted by (Lo, Hi)
	parent int                   // the group of the nearest ancestor prefix; -1 for none
}

// closeUnderIntersection adds the universe, closes the set under pairwise
// intersection, and removes empty and duplicate ranges. It returns the
// labels grouped by prefix, groups in Compare order, so the labels read
// in group order are sorted.
//
// Two ranges intersect only when one's prefix is an ancestor of (or
// equal to) the other's, and the intersection has the longer prefix. So
// a prefix's labels are its own input ranges, their intersections with
// the labels of its ancestor prefixes, and the intersections of those
// among themselves. Prefixes sorted by (address, length) list every
// ancestor before its descendants, and the ancestors present form a stack
// along the sweep: each prefix is closed once, against its own chain.
func closeUnderIntersection(ranges []netaddr.PrefixRange) []group {
	in := make([]netaddr.PrefixRange, 0, len(ranges)+1)
	in = append(in, netaddr.Universe)
	for _, r := range ranges {
		if !r.IsEmpty() {
			in = append(in, r)
		}
	}
	sort.Slice(in, func(i, j int) bool { return in[i].Compare(in[j]) < 0 })
	var groups []group
	var stack []int // the groups of the current prefix's ancestors
	for lo := 0; lo < len(in); {
		p := in[lo].Prefix
		hi := lo + 1
		for hi < len(in) && in[hi].Prefix == p {
			hi++
		}
		for len(stack) > 0 && !groups[stack[len(stack)-1]].prefix.ContainsPrefix(p) {
			stack = stack[:len(stack)-1]
		}
		parent := -1
		if len(stack) > 0 {
			parent = stack[len(stack)-1]
		}
		var labels []netaddr.PrefixRange
		add := func(r netaddr.PrefixRange) {
			for _, x := range labels {
				if x == r {
					return
				}
			}
			labels = append(labels, r)
		}
		for _, r := range in[lo:hi] {
			add(r)
		}
		for _, a := range stack {
			for _, ra := range groups[a].labels {
				for _, r := range in[lo:hi] {
					if x, ok := r.Intersect(ra); ok {
						add(x)
					}
				}
			}
		}
		for i := 1; i < len(labels); i++ { // worklist: new labels join the end
			for j := 0; j < i; j++ {
				if x, ok := labels[i].Intersect(labels[j]); ok {
					add(x)
				}
			}
		}
		sort.Slice(labels, func(i, j int) bool { return labels[i].Compare(labels[j]) < 0 })
		groups = append(groups, group{prefix: p, labels: labels, parent: parent})
		stack = append(stack, len(groups)-1)
		lo = hi
	}
	return groups
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

// Matcher runs GetMatch over one DAG and one SetOps for any number of
// input sets. The first time the walk needs a node it computes the
// node's range set (RangeBDD ∧ Universe) and its remainder (the range
// minus its children's ranges), and keeps both for later sets and for
// the exactness check. A header localizer asks for one GetMatch per
// difference, so the node sets are built once per localizer rather than
// once per difference. BDDs are canonical, so the terms are the same as
// without the memo.
//
// A Matcher holds nodes of o.F: it is single-goroutine state and lives no
// longer than the factory's nodes do.
type Matcher struct {
	d        *DAG
	o        SetOps
	rng, rem []bdd.Node
	have     []uint8 // per node: haveRange | haveRem
}

const (
	haveRange = 1 << iota
	haveRem
)

// NewMatcher returns an empty matcher for d under o.
func (d *DAG) NewMatcher(o SetOps) *Matcher {
	n := len(d.Nodes)
	return &Matcher{d: d, o: o, rng: make([]bdd.Node, n), rem: make([]bdd.Node, n), have: make([]uint8, n)}
}

// nodeRange is n's range restricted to the universe.
func (m *Matcher) nodeRange(n *Node) bdd.Node {
	if m.have[n.id]&haveRange == 0 {
		m.rng[n.id] = m.o.F.And(m.o.RangeBDD(n.Range), m.o.Universe)
		m.have[n.id] |= haveRange
	}
	return m.rng[n.id]
}

// remainder is n's range minus its children's ranges, within the
// universe.
func (m *Matcher) remainder(n *Node) bdd.Node {
	if m.have[n.id]&haveRem == 0 {
		r := m.nodeRange(n)
		for _, c := range n.Children {
			r = m.o.F.Diff(r, m.nodeRange(c))
		}
		m.rem[n.id] = r
		m.have[n.id] |= haveRem
	}
	return m.rem[n.id]
}

func (m *Matcher) contains(sub, super bdd.Node) bool {
	return m.o.F.Implies(sub, super)
}

// GetMatch expresses S (a BDD subset of the universe) in terms of the
// DAG's prefix ranges, following the paper's recursive algorithm. The
// boolean result reports whether the representation is exact; it can be
// false when S was built from constructs outside the range vocabulary
// (e.g. non-contiguous wildcard masks), in which case the terms
// under-approximate S. It is a one-shot Matcher; callers that match many
// sets over one DAG keep a Matcher instead.
func (d *DAG) GetMatch(o SetOps, s bdd.Node) ([]Term, bool) {
	return d.NewMatcher(o).GetMatch(s)
}

// GetMatch is DAG.GetMatch over the matcher's DAG and SetOps.
func (m *Matcher) GetMatch(s bdd.Node) ([]Term, bool) {
	if m.d.Root == nil {
		return nil, s == bdd.False
	}
	s = m.o.F.And(s, m.o.Universe)
	terms := m.getMatch(s, m.d.Root)
	// Exactness check: the union of the terms must equal S.
	union := bdd.False
	for _, t := range terms {
		union = m.o.F.Or(union, m.termBDD(t))
	}
	return terms, union == s
}

func (m *Matcher) getMatch(s bdd.Node, node *Node) []Term {
	if len(node.Children) == 0 {
		if r := m.nodeRange(node); r != bdd.False && m.contains(r, s) {
			return []Term{{Include: node.Range}}
		}
		return nil
	}
	if rem := m.remainder(node); rem != bdd.False && m.contains(rem, s) {
		notS := m.o.F.And(m.o.F.Not(s), m.o.Universe)
		var nonmatches []Term
		for _, c := range node.Children {
			nonmatches = append(nonmatches, m.getMatch(notS, c)...)
		}
		return []Term{{Include: node.Range, Exclude: dedupeTerms(nonmatches)}}
	}
	var out []Term
	for _, c := range node.Children {
		out = append(out, m.getMatch(s, c)...)
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

// termBDD evaluates a (possibly nested) term symbolically. Every range
// in a term is a DAG label, found by binary search of the sorted Nodes.
func (m *Matcher) termBDD(t Term) bdd.Node {
	nodes := m.d.Nodes
	i := sort.Search(len(nodes), func(i int) bool { return nodes[i].Range.Compare(t.Include) >= 0 })
	n := m.nodeRange(nodes[i])
	for _, x := range t.Exclude {
		n = m.o.F.Diff(n, m.termBDD(x))
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
	var buf [64]byte
	return string(t.AppendTo(buf[:0]))
}

// AppendTo appends the String form of t to b.
func (t FlatTerm) AppendTo(b []byte) []byte {
	b = t.Include.AppendTo(b)
	for _, x := range t.Exclude {
		b = append(b, " − "...)
		b = x.AppendTo(b)
	}
	return b
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
