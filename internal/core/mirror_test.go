package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/ir"
)

// TestDiffBothMatchesLoneDiffs: a joint pass's forward report renders as
// a lone (c1, c2) diff and its reverse as a lone (c2, c1) diff, on the
// pooled, policy-cache and striped engines, with exhaustive communities
// too. The striping thresholds are lowered so small pairs stripe.
func TestDiffBothMatchesLoneDiffs(t *testing.T) {
	defer func(c, l int) { stripeMinClauses, stripeMinLines = c, l }(stripeMinClauses, stripeMinLines)
	stripeMinClauses, stripeMinLines = 4, 8

	type pair struct {
		name   string
		c1, c2 *ir.Config
	}
	var pairs []pair
	for seed := uint64(1); seed <= 6; seed++ {
		c1, c2 := genPolicyConfigs(t, seed, 12)
		pairs = append(pairs, pair{fmt.Sprintf("policy-%d", seed), c1, c2})
		a1, a2 := genACLConfigs(t, seed, 40)
		pairs = append(pairs, pair{fmt.Sprintf("acl-%d", seed), a1, a2})
	}
	f1, f2 := syntheticFleetPair(t, 4, 3)
	pairs = append(pairs, pair{"fleet", f1, f2})
	// No shared ACL name: the unmatched lists must still swap.
	u1, u2 := ir.NewConfig("u1", ir.VendorCisco), ir.NewConfig("u2", ir.VendorCisco)
	u1.ACLs["ONLY-1"] = &ir.ACL{Name: "ONLY-1"}
	u2.ACLs["ONLY-2"] = &ir.ACL{Name: "ONLY-2"}
	pairs = append(pairs, pair{"unmatched-acls", u1, u2})

	modes := map[string]func() Options{
		"sequential":  func() Options { return Options{Workers: 1} },
		"policycache": func() Options { return Options{Workers: 1, PolicyCache: NewPolicyCache()} },
		"pool":        func() Options { return Options{Workers: 2} },
		"striped":     func() Options { return Options{Workers: 4} },
		"exhaustive":  func() Options { return Options{Workers: 1, ExhaustiveCommunities: true} },
	}
	striped, reversed := 0, 0
	for _, p := range pairs {
		for mode, mk := range modes {
			fwd, rev, err := DiffBoth(context.Background(), p.c1, p.c2, mk())
			if err != nil {
				t.Fatalf("%s %s: %v", p.name, mode, err)
			}
			if rev == nil {
				t.Fatalf("%s %s: no reverse report", p.name, mode)
			}
			want1, err := Diff(p.c1, p.c2, mk())
			if err != nil {
				t.Fatal(err)
			}
			want2, err := Diff(p.c2, p.c1, mk())
			if err != nil {
				t.Fatal(err)
			}
			if got, want := renderReport(fwd), renderReport(want1); got != want {
				t.Errorf("%s %s: forward report diverges:\n%s\nvs\n%s", p.name, mode, got, want)
			}
			if got, want := renderReport(rev), renderReport(want2); got != want {
				t.Errorf("%s %s: reverse report diverges:\n%s\nvs\n%s", p.name, mode, got, want)
			}
			for _, st := range fwd.Stats {
				if st.Stripes > 0 {
					striped++
				}
			}
			reversed += rev.TotalDifferences()
		}
	}
	if striped == 0 || reversed == 0 {
		t.Fatalf("vacuous: %d striped components, %d reverse differences", striped, reversed)
	}
}
