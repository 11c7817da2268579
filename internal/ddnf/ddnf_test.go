package ddnf

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/bdd"
	"repro/internal/netaddr"
	"repro/internal/symbolic"
)

// figure3Ranges builds a concrete instance of the paper's Figure 3 DAG:
// A is the universe; B and C sit under A; D, E under B; F under C; G
// under F.
func figure3Ranges() map[string]netaddr.PrefixRange {
	return map[string]netaddr.PrefixRange{
		"A": netaddr.Universe,
		"B": netaddr.MustParsePrefixRange("10.0.0.0/8 : 8-32"),
		"C": netaddr.MustParsePrefixRange("20.0.0.0/8 : 8-32"),
		"D": netaddr.MustParsePrefixRange("10.1.0.0/16 : 16-32"),
		"E": netaddr.MustParsePrefixRange("10.2.0.0/16 : 16-32"),
		"F": netaddr.MustParsePrefixRange("20.1.0.0/16 : 16-32"),
		"G": netaddr.MustParsePrefixRange("20.1.1.0/24 : 24-32"),
	}
}

func routeOps(enc *symbolic.RouteEncoding) SetOps {
	return SetOps{
		F:        enc.F,
		RangeBDD: enc.PrefixRangeBDD,
		Universe: enc.WellFormed,
	}
}

func TestBuildDAGStructure(t *testing.T) {
	rs := figure3Ranges()
	d := Build([]netaddr.PrefixRange{rs["B"], rs["C"], rs["D"], rs["E"], rs["F"], rs["G"]})
	if d.Root == nil || !d.Root.Range.Equal(netaddr.Universe) {
		t.Fatal("root must be the universe")
	}
	if len(d.Nodes) != 7 {
		t.Fatalf("nodes = %d, want 7", len(d.Nodes))
	}
	find := func(r netaddr.PrefixRange) *Node {
		for _, n := range d.Nodes {
			if n.Range.Equal(r) {
				return n
			}
		}
		t.Fatalf("missing node %v", r)
		return nil
	}
	b := find(rs["B"])
	if len(b.Children) != 2 {
		t.Errorf("B children = %d, want D and E", len(b.Children))
	}
	f := find(rs["F"])
	if len(f.Children) != 1 || !f.Children[0].Range.Equal(rs["G"]) {
		t.Errorf("F children = %+v", f.Children)
	}
	if len(d.Root.Children) != 2 {
		t.Errorf("root children = %d, want B and C", len(d.Root.Children))
	}
	// Immediate containment only: G is not a direct child of C.
	c := find(rs["C"])
	for _, ch := range c.Children {
		if ch.Range.Equal(rs["G"]) {
			t.Error("G must hang off F, not C (no transitive edges)")
		}
	}
}

func TestCloseUnderIntersection(t *testing.T) {
	// Two overlapping ranges force their intersection into the label set.
	r1 := netaddr.MustParsePrefixRange("10.0.0.0/8 : 8-24")
	r2 := netaddr.MustParsePrefixRange("10.1.0.0/16 : 16-32")
	var labels []netaddr.PrefixRange
	for _, g := range closeUnderIntersection([]netaddr.PrefixRange{r1, r2}) {
		labels = append(labels, g.labels...)
	}
	want := netaddr.MustParsePrefixRange("10.1.0.0/16 : 16-24")
	var found bool
	for _, l := range labels {
		if l.Equal(want) {
			found = true
		}
	}
	if !found {
		t.Errorf("intersection %v missing from %v", want, labels)
	}
	// Universe present exactly once.
	count := 0
	for _, l := range labels {
		if l.Equal(netaddr.Universe) {
			count++
		}
	}
	if count != 1 {
		t.Errorf("universe appears %d times", count)
	}
}

// TestGetMatchFigure3 reproduces the paper's Figure 3 walk-through:
// S = (B − D) ∪ (C − F) ∪ G yields GetMatch result {B−D, C−(F−G)} and the
// simplification pass turns it into {B−D, C−F, G}.
func TestGetMatchFigure3(t *testing.T) {
	rs := figure3Ranges()
	enc := symbolic.NewRouteEncoding()
	o := routeOps(enc)
	d := Build([]netaddr.PrefixRange{rs["B"], rs["C"], rs["D"], rs["E"], rs["F"], rs["G"]})

	S := o.F.OrN(
		o.F.Diff(o.F.And(o.RangeBDD(rs["B"]), o.Universe), o.RangeBDD(rs["D"])),
		o.F.Diff(o.F.And(o.RangeBDD(rs["C"]), o.Universe), o.RangeBDD(rs["F"])),
		o.F.And(o.RangeBDD(rs["G"]), o.Universe),
	)
	terms, exact := d.GetMatch(o, S)
	if !exact {
		t.Fatal("representation should be exact")
	}
	if len(terms) != 2 {
		t.Fatalf("terms = %+v, want 2", terms)
	}
	// First term: B − D.
	if !terms[0].Include.Equal(rs["B"]) || len(terms[0].Exclude) != 1 ||
		!terms[0].Exclude[0].Include.Equal(rs["D"]) {
		t.Errorf("term 0 = %+v, want B − D", terms[0])
	}
	// Second term: C − (F − G).
	if !terms[1].Include.Equal(rs["C"]) || len(terms[1].Exclude) != 1 {
		t.Fatalf("term 1 = %+v, want C − (F − G)", terms[1])
	}
	nested := terms[1].Exclude[0]
	if !nested.Include.Equal(rs["F"]) || len(nested.Exclude) != 1 ||
		!nested.Exclude[0].Include.Equal(rs["G"]) {
		t.Errorf("nested = %+v, want F − G", nested)
	}

	flat := Simplify(terms)
	if len(flat) != 3 {
		t.Fatalf("flat = %+v, want 3 terms", flat)
	}
	// Sorted order: 10/8−D, 20/8−F, 20.1.1/24.
	if !flat[0].Include.Equal(rs["B"]) || len(flat[0].Exclude) != 1 || !flat[0].Exclude[0].Equal(rs["D"]) {
		t.Errorf("flat 0 = %v", flat[0])
	}
	if !flat[1].Include.Equal(rs["C"]) || len(flat[1].Exclude) != 1 || !flat[1].Exclude[0].Equal(rs["F"]) {
		t.Errorf("flat 1 = %v", flat[1])
	}
	if !flat[2].Include.Equal(rs["G"]) || len(flat[2].Exclude) != 0 {
		t.Errorf("flat 2 = %v", flat[2])
	}

	// The flattened representation still denotes exactly S.
	union := bdd.False
	for _, ft := range flat {
		n := o.F.And(o.RangeBDD(ft.Include), o.Universe)
		for _, x := range ft.Exclude {
			n = o.F.Diff(n, o.RangeBDD(x))
		}
		union = o.F.Or(union, n)
	}
	if union != S {
		t.Error("simplified terms denote a different set")
	}
}

func TestGetMatchWholeUniverse(t *testing.T) {
	enc := symbolic.NewRouteEncoding()
	o := routeOps(enc)
	d := Build([]netaddr.PrefixRange{netaddr.MustParsePrefixRange("10.0.0.0/8 : 8-32")})
	terms, exact := d.GetMatch(o, o.Universe)
	if !exact || len(terms) != 1 || !terms[0].Include.Equal(netaddr.Universe) || len(terms[0].Exclude) != 0 {
		t.Errorf("whole universe should be the single term U: %+v", terms)
	}
}

func TestGetMatchEmptySet(t *testing.T) {
	enc := symbolic.NewRouteEncoding()
	o := routeOps(enc)
	d := Build([]netaddr.PrefixRange{netaddr.MustParsePrefixRange("10.0.0.0/8 : 8-32")})
	terms, exact := d.GetMatch(o, bdd.False)
	if !exact || len(terms) != 0 {
		t.Errorf("empty set should produce no terms: %+v", terms)
	}
}

// TestGetMatchTable2Shape reproduces the header localization of the
// paper's Table 2(a): the impacted set "NETS_cisco minus NETS_juniper" is
// rendered as included 16-32 ranges minus excluded 16-16 ranges.
func TestGetMatchTable2Shape(t *testing.T) {
	cisco1 := netaddr.MustParsePrefixRange("10.9.0.0/16 : 16-32")
	cisco2 := netaddr.MustParsePrefixRange("10.100.0.0/16 : 16-32")
	jun1 := netaddr.MustParsePrefixRange("10.9.0.0/16 : 16-16")
	jun2 := netaddr.MustParsePrefixRange("10.100.0.0/16 : 16-16")
	enc := symbolic.NewRouteEncoding()
	o := routeOps(enc)
	d := Build([]netaddr.PrefixRange{cisco1, cisco2, jun1, jun2})

	S := o.F.OrN(
		o.F.Diff(o.F.And(o.RangeBDD(cisco1), o.Universe), o.RangeBDD(jun1)),
		o.F.Diff(o.F.And(o.RangeBDD(cisco2), o.Universe), o.RangeBDD(jun2)),
	)
	terms, exact := d.GetMatch(o, S)
	if !exact {
		t.Fatal("should be exact")
	}
	flat := Simplify(terms)
	if len(flat) != 2 {
		t.Fatalf("flat = %+v", flat)
	}
	if !flat[0].Include.Equal(cisco1) || len(flat[0].Exclude) != 1 || !flat[0].Exclude[0].Equal(jun1) {
		t.Errorf("flat 0 = %v, want 10.9/16:16-32 − 10.9/16:16-16", flat[0])
	}
	if !flat[1].Include.Equal(cisco2) || len(flat[1].Exclude) != 1 || !flat[1].Exclude[0].Equal(jun2) {
		t.Errorf("flat 1 = %v", flat[1])
	}
}

func TestGetMatchInexactFallback(t *testing.T) {
	// A set not expressible over the vocabulary: a single /32 when only
	// a /8 range is known. GetMatch must report inexactness.
	enc := symbolic.NewRouteEncoding()
	o := routeOps(enc)
	d := Build([]netaddr.PrefixRange{netaddr.MustParsePrefixRange("10.0.0.0/8 : 8-32")})
	S := o.F.And(enc.PrefixBDD(netaddr.MustParsePrefix("10.1.2.3/32")), o.Universe)
	terms, exact := d.GetMatch(o, S)
	if exact {
		t.Errorf("localization cannot be exact here: %+v", terms)
	}
	// Under-approximation: whatever is returned must be inside S.
	union := bdd.False
	m := d.NewMatcher(o)
	for _, t2 := range terms {
		union = o.F.Or(union, m.termBDD(t2))
	}
	if o.F.Diff(union, S) != bdd.False {
		t.Error("terms must under-approximate S")
	}
}

func TestFlatTermString(t *testing.T) {
	ft := FlatTerm{
		Include: netaddr.MustParsePrefixRange("10.0.0.0/8 : 8-32"),
		Exclude: []netaddr.PrefixRange{netaddr.MustParsePrefixRange("10.1.0.0/16 : 16-32")},
	}
	want := "10.0.0.0/8 : 8-32 − 10.1.0.0/16 : 16-32"
	if ft.String() != want {
		t.Errorf("String = %q, want %q", ft.String(), want)
	}
	// Any term: String joins the ranges' String forms with " − ", and
	// AppendTo appends the same text after what its buffer held.
	f := func(addrs []uint32, lens []uint8, head string) bool {
		var t FlatTerm
		for i, a := range addrs {
			var l uint8
			if i < len(lens) {
				l = lens[i] % 33
			}
			r := netaddr.NewPrefixRange(netaddr.NewPrefix(netaddr.Addr(a), l), l, 32)
			if i == 0 {
				t.Include = r
			} else {
				t.Exclude = append(t.Exclude, r)
			}
		}
		parts := []string{t.Include.String()}
		for _, x := range t.Exclude {
			parts = append(parts, x.String())
		}
		want := strings.Join(parts, " − ")
		return t.String() == want && string(t.AppendTo([]byte(head))) == head+want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBuildWithDuplicatesAndEmpties(t *testing.T) {
	r := netaddr.MustParsePrefixRange("10.0.0.0/8 : 8-32")
	empty := netaddr.PrefixRange{Prefix: netaddr.MustParsePrefix("10.0.0.0/8"), Lo: 20, Hi: 10}
	d := Build([]netaddr.PrefixRange{r, r, empty})
	if len(d.Nodes) != 2 { // universe + r
		t.Errorf("nodes = %d, want 2", len(d.Nodes))
	}
}

func TestDot(t *testing.T) {
	d := Build([]netaddr.PrefixRange{
		netaddr.MustParsePrefixRange("10.0.0.0/8 : 8-32"),
		netaddr.MustParsePrefixRange("10.1.0.0/16 : 16-32"),
	})
	dot := d.Dot()
	for _, want := range []string{"digraph", "10.0.0.0/8 : 8-32", "->"} {
		if !strings.Contains(dot, want) {
			t.Errorf("dot output missing %q:\n%s", want, dot)
		}
	}
}

// buildReference is the original cubic construction, kept as the reference
// Build must agree with: closure by repeated all-pairs rounds, and an
// edge m → n whenever no third label sits strictly between them.
func buildReference(ranges []netaddr.PrefixRange) *DAG {
	seen := map[netaddr.PrefixRange]bool{}
	var labels []netaddr.PrefixRange
	add := func(r netaddr.PrefixRange) bool {
		if r.IsEmpty() || seen[r] {
			return false
		}
		seen[r] = true
		labels = append(labels, r)
		return true
	}
	add(netaddr.Universe)
	for _, r := range ranges {
		add(r)
	}
	for changed := true; changed; {
		changed = false
		n := len(labels)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if inter, ok := labels[i].Intersect(labels[j]); ok && add(inter) {
					changed = true
				}
			}
		}
	}
	sort.Slice(labels, func(i, j int) bool { return labels[i].Compare(labels[j]) < 0 })
	nodes := make([]*Node, len(labels))
	for i, r := range labels {
		nodes[i] = &Node{Range: r, id: i}
	}
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
				if k != m && k != n && strictlyContains(m.Range, k.Range) && strictlyContains(k.Range, n.Range) {
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

// dagDiff describes the first difference between two DAGs (labels,
// sorted children, root), or returns "" when they are identical.
func dagDiff(got, want *DAG) string {
	if len(got.Nodes) != len(want.Nodes) {
		return fmt.Sprintf("%d nodes, want %d", len(got.Nodes), len(want.Nodes))
	}
	for i, g := range got.Nodes {
		w := want.Nodes[i]
		if g.Range != w.Range {
			return fmt.Sprintf("node %d is %v, want %v", i, g.Range, w.Range)
		}
		if len(g.Children) != len(w.Children) {
			return fmt.Sprintf("node %v has %d children, want %d", g.Range, len(g.Children), len(w.Children))
		}
		for k := range g.Children {
			if g.Children[k].Range != w.Children[k].Range {
				return fmt.Sprintf("node %v child %d is %v, want %v", g.Range, k, g.Children[k].Range, w.Children[k].Range)
			}
		}
	}
	if (got.Root == nil) != (want.Root == nil) || got.Root != nil && got.Root.Range != want.Root.Range {
		return "roots differ"
	}
	return ""
}

// TestBuildMatchesReference: over random range sets, some overlapping
// and some nested, Build's DAG is the reference construction's.
func TestBuildMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		var ranges []netaddr.PrefixRange
		for k := rng.Intn(24); k > 0; k-- {
			// Addresses from a small pool so that ranges nest and overlap.
			l := uint8(rng.Intn(25))
			addr := netaddr.Addr(uint32(10)<<24 | uint32(rng.Intn(4))<<22 | uint32(rng.Intn(4))<<14)
			lo := uint8(rng.Intn(int(l) + 4)) // at times below the prefix length
			hi := lo + uint8(rng.Intn(int(33-lo)))
			if rng.Intn(8) == 0 {
				lo, hi = hi, lo // sometimes empty
			}
			ranges = append(ranges, netaddr.PrefixRange{Prefix: netaddr.NewPrefix(addr, l), Lo: lo, Hi: hi})
		}
		if d := dagDiff(Build(ranges), buildReference(ranges)); d != "" {
			t.Fatalf("trial %d, ranges %v: %s", trial, ranges, d)
		}
	}
}

// TestMatcherMatchesOneShot: one Matcher reused across many sets returns
// what a fresh GetMatch returns for each.
func TestMatcherMatchesOneShot(t *testing.T) {
	rs := figure3Ranges()
	d := Build([]netaddr.PrefixRange{rs["B"], rs["C"], rs["D"], rs["E"], rs["F"], rs["G"]})
	enc := symbolic.NewRouteEncoding()
	o := routeOps(enc)
	m := d.NewMatcher(o)
	sets := []bdd.Node{bdd.False, o.Universe}
	for _, a := range []string{"B", "C", "D", "E", "F", "G"} {
		ra := o.F.And(enc.PrefixRangeBDD(rs[a]), o.Universe)
		sets = append(sets, ra)
		for _, b := range []string{"D", "F", "G"} {
			sets = append(sets, o.F.Diff(ra, enc.PrefixRangeBDD(rs[b])))
		}
	}
	for i, s := range sets {
		got, gotExact := m.GetMatch(s)
		want, wantExact := d.GetMatch(o, s)
		if gotExact != wantExact || fmt.Sprint(Simplify(got)) != fmt.Sprint(Simplify(want)) {
			t.Fatalf("set %d: matcher %v (exact %v), one-shot %v (exact %v)", i, got, gotExact, want, wantExact)
		}
	}
}
