// Package present formats Campion reports for people: the two-column
// difference tables of the paper (Tables 2, 4, and 7) and a JSON form for
// tooling. Present is the third stage of the ConfigDiff pipeline (§3).
package present

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/ddnf"
)

// Format writes the full report as text tables.
func Format(w io.Writer, rep *core.Report) error {
	name1, name2 := routerNames(rep)
	if rep.TotalDifferences() == 0 {
		_, err := fmt.Fprintf(w, "No differences found between %s and %s.\n", name1, name2)
		return err
	}
	n := 0
	for _, d := range rep.RouteMapDiffs {
		n++
		fmt.Fprintf(w, "Difference %d: route policy (%s, neighbor %s)\n", n, d.Pair.Kind, d.Pair.Neighbor)
		t := newTable(name1, name2)
		t.addPair("Included Prefixes", joinTerms(includes(d.Localization.Terms)), "")
		t.addPair("Excluded Prefixes", joinTerms(excludes(d.Localization.Terms)), "")
		if !d.Localization.Exact {
			t.addPair("Note", "prefix localization is approximate", "")
		}
		if len(d.Localization.CommunityTerms) > 0 {
			var lines []string
			for _, ct := range d.Localization.CommunityTerms {
				lines = append(lines, ct.String())
			}
			if !d.Localization.CommunityComplete {
				lines = append(lines, "…")
			}
			t.addPair("Communities (all)", strings.Join(lines, "\n"), "")
		} else if len(d.Localization.ExampleCommunities) > 0 {
			t.addPair("Community", strings.Join(d.Localization.ExampleCommunities, " "), "")
		}
		t.addPair("Policy Name", d.Pair.Name1, d.Pair.Name2)
		t.addPair("Action", d.Action1, d.Action2)
		t.addPair("Text", d.Text1.Text(), d.Text2.Text())
		t.write(w)
		fmt.Fprintln(w)
	}
	for _, d := range rep.ACLDiffs {
		n++
		fmt.Fprintf(w, "Difference %d: ACL %s\n", n, d.Name1)
		t := newTable(name1, name2)
		t.addPair("Src Packets", joinFlat(d.Localization.SrcTerms), "")
		t.addPair("Dst Packets", joinFlat(d.Localization.DstTerms), "")
		ex := strings.Join(d.Localization.ExampleFields, "\n")
		if d.Localization.More > 0 {
			ex += fmt.Sprintf("\n+%d more", d.Localization.More)
		}
		if strings.TrimSpace(ex) != "" {
			t.addPair("Example", ex, "")
		}
		t.addPair("ACL Name", d.Name1, d.Name2)
		t.addPair("Action", d.Action1, d.Action2)
		t.addPair("Text", d.Text1.Text(), d.Text2.Text())
		t.write(w)
		fmt.Fprintln(w)
	}
	for _, d := range rep.Structural {
		n++
		fmt.Fprintf(w, "Difference %d: %s %s\n", n, d.Component, d.Key)
		t := newTable(name1, name2)
		t.addPair(titleCase(d.Field), d.Value1, d.Value2)
		t.addPair("Text", d.Span1.Text(), d.Span2.Text())
		t.write(w)
		fmt.Fprintln(w)
	}
	for _, name := range rep.UnmatchedACLs1 {
		n++
		fmt.Fprintf(w, "Difference %d: ACL %s present only on %s\n\n", n, name, name1)
	}
	for _, name := range rep.UnmatchedACLs2 {
		n++
		fmt.Fprintf(w, "Difference %d: ACL %s present only on %s\n\n", n, name, name2)
	}
	return nil
}

func routerNames(rep *core.Report) (string, string) {
	n1, n2 := "router1", "router2"
	if rep.Config1 != nil && rep.Config1.Hostname != "" {
		n1 = rep.Config1.Hostname
	}
	if rep.Config2 != nil && rep.Config2.Hostname != "" {
		n2 = rep.Config2.Hostname
	}
	if n1 == n2 {
		n1 += " (1)"
		n2 += " (2)"
	}
	return n1, n2
}

// includes extracts the included ranges of the flat terms.
func includes(terms []ddnf.FlatTerm) []string {
	var out []string
	for _, t := range terms {
		out = append(out, t.Include.String())
	}
	return out
}

// excludes extracts the union of excluded ranges of the flat terms.
func excludes(terms []ddnf.FlatTerm) []string {
	var out []string
	for _, t := range terms {
		for _, x := range t.Exclude {
			out = append(out, x.String())
		}
	}
	return out
}

func joinTerms(ss []string) string { return strings.Join(ss, "\n") }

func joinFlat(terms []ddnf.FlatTerm) string {
	var out []string
	for _, t := range terms {
		s := t.Include.Prefix.String()
		for _, x := range t.Exclude {
			s += " − " + x.Prefix.String()
		}
		out = append(out, s)
	}
	return strings.Join(out, "\n")
}

func titleCase(s string) string {
	if s == "" {
		return s
	}
	return strings.ToUpper(s[:1]) + s[1:]
}

// table is a minimal two-column (plus label) text table with multi-line
// cells, the shape of the paper's output tables.
type table struct {
	header [2]string
	rows   []row
}

type row struct {
	label  string
	c1, c2 string
}

func newTable(h1, h2 string) *table {
	return &table{header: [2]string{h1, h2}}
}

// addPair adds a row; rows whose cells are all empty are dropped.
func (t *table) addPair(label, c1, c2 string) {
	if strings.TrimSpace(c1) == "" && strings.TrimSpace(c2) == "" {
		return
	}
	t.rows = append(t.rows, row{label: label, c1: c1, c2: c2})
}

func (t *table) write(w io.Writer) {
	labelW, c1W := len(""), len(t.header[0])
	for _, r := range t.rows {
		labelW = maxInt(labelW, len(r.label))
		for _, line := range strings.Split(r.c1, "\n") {
			c1W = maxInt(c1W, len(line))
		}
	}
	sep := fmt.Sprintf("+%s+%s+%s+\n",
		strings.Repeat("-", labelW+2), strings.Repeat("-", c1W+2), strings.Repeat("-", 40))
	fmt.Fprint(w, sep)
	fmt.Fprintf(w, "| %-*s | %-*s | %-38s |\n", labelW, "", c1W, t.header[0], t.header[1])
	fmt.Fprint(w, sep)
	for _, r := range t.rows {
		l1 := strings.Split(r.c1, "\n")
		l2 := strings.Split(r.c2, "\n")
		lines := maxInt(len(l1), len(l2))
		for i := 0; i < lines; i++ {
			label := ""
			if i == 0 {
				label = r.label
			}
			s1, s2 := "", ""
			if i < len(l1) {
				s1 = l1[i]
			}
			if i < len(l2) {
				s2 = l2[i]
			}
			fmt.Fprintf(w, "| %-*s | %-*s | %-38s |\n", labelW, label, c1W, s1, clip(s2, 38))
		}
		fmt.Fprint(w, sep)
	}
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	if n <= 1 {
		return s[:n]
	}
	return s[:n-1] + "…"
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Summary writes a one-line-per-difference digest grouped by component,
// the form used by the experiment tables (e.g. Table 6's counts).
func Summary(w io.Writer, rep *core.Report) {
	counts := map[string]int{}
	for _, d := range rep.RouteMapDiffs {
		counts["route-policy ("+d.Pair.Kind+")"]++
	}
	for range rep.ACLDiffs {
		counts["acl"]++
	}
	for _, d := range rep.Structural {
		counts[d.Component]++
	}
	if len(rep.UnmatchedACLs1)+len(rep.UnmatchedACLs2) > 0 {
		counts["acl (unmatched)"] = len(rep.UnmatchedACLs1) + len(rep.UnmatchedACLs2)
	}
	var keys []string
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%-28s %d\n", k, counts[k])
	}
}
