package ddnf_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/campion"
	"repro/internal/ddnf"
	"repro/internal/headerloc"
	"repro/internal/ir"
	"repro/internal/netaddr"
)

// aclRanges lists the /32 address ranges an ACL localizer builds its
// DAG from: every contiguous source or destination wildcard.
func aclRanges(field func(*ir.ACLLine) []netaddr.Wildcard, acls ...*ir.ACL) []netaddr.PrefixRange {
	var out []netaddr.PrefixRange
	for _, acl := range acls {
		for _, l := range acl.Lines {
			for _, w := range field(l) {
				if p, ok := w.AsPrefix(); ok {
					out = append(out, netaddr.PrefixRange{Prefix: p, Lo: 32, Hi: 32})
				}
			}
		}
	}
	return out
}

// TestBuildMatchesReferenceGolden: over the golden pairs' route-policy
// ranges and every shared ACL's source and destination ranges, Build's
// DAG is the reference construction's.
func TestBuildMatchesReferenceGolden(t *testing.T) {
	root := filepath.Join("..", "campiontest", "golden")
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	sets := 0
	for _, e := range entries {
		if !e.IsDir() || e.Name() == "repair" {
			continue
		}
		c1, err := campion.LoadFile(filepath.Join(root, e.Name(), "a.cfg"))
		if err != nil {
			t.Fatal(err)
		}
		c2, err := campion.LoadFile(filepath.Join(root, e.Name(), "b.cfg"))
		if err != nil {
			t.Fatal(err)
		}
		check := func(what string, ranges []netaddr.PrefixRange) {
			sets++
			if d := ddnf.DAGDiff(ddnf.Build(ranges), ddnf.BuildReference(ranges)); d != "" {
				t.Errorf("%s %s: %s", e.Name(), what, d)
			}
		}
		check("route ranges", append(headerloc.ConfigPrefixRanges(c1), headerloc.ConfigPrefixRanges(c2)...))
		for name, acl1 := range c1.ACLs {
			if acl2 := c2.ACLs[name]; acl2 != nil {
				check("acl "+name+" src", aclRanges(func(l *ir.ACLLine) []netaddr.Wildcard { return l.Src }, acl1, acl2))
				check("acl "+name+" dst", aclRanges(func(l *ir.ACLLine) []netaddr.Wildcard { return l.Dst }, acl1, acl2))
			}
		}
	}
	if sets < 10 {
		t.Fatalf("only %d range sets checked", sets)
	}
}
