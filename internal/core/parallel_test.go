package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cisco"
	"repro/internal/ir"
)

// syntheticFleetPair builds a Cisco config pair with `policies` distinct
// route maps, each applied to `fanout` neighbors (so the chain-identity
// cache has work to do), with a local-preference difference injected into
// every odd policy. It also carries a pair of slightly different ACLs.
func syntheticFleetPair(t testing.TB, policies, fanout int) (*ir.Config, *ir.Config) {
	t.Helper()
	build := func(side int) string {
		var b strings.Builder
		fmt.Fprintf(&b, "hostname r%d\n", side)
		for p := 0; p < policies; p++ {
			fmt.Fprintf(&b, "ip prefix-list NETS%d permit 10.%d.0.0/16 le 24\n", p, p+1)
			pref := 100 + p
			if side == 2 && p%2 == 1 {
				pref += 50 // injected difference
			}
			fmt.Fprintf(&b, "route-map POL%d permit 10\n match ip address NETS%d\n set local-preference %d\n", p, p, pref)
			fmt.Fprintf(&b, "route-map POL%d deny 20\n", p)
		}
		b.WriteString("ip access-list extended EDGE\n permit tcp any any eq 80\n")
		if side == 2 {
			b.WriteString(" permit tcp any any eq 443\n")
		}
		b.WriteString("router bgp 65001\n")
		for p := 0; p < policies; p++ {
			for n := 0; n < fanout; n++ {
				addr := fmt.Sprintf("10.%d.%d.2", 200+p, n+1)
				fmt.Fprintf(&b, " neighbor %s remote-as 65002\n", addr)
				fmt.Fprintf(&b, " neighbor %s route-map POL%d in\n", addr, p)
			}
		}
		return b.String()
	}
	c1, err := cisco.Parse("r1.cfg", build(1))
	if err != nil {
		t.Fatal(err)
	}
	c2, err := cisco.Parse("r2.cfg", build(2))
	if err != nil {
		t.Fatal(err)
	}
	return c1, c2
}

// renderReport flattens a report into a canonical string for byte-exact
// comparison across runs and worker counts.
func renderReport(rep *Report) string {
	var b strings.Builder
	for _, d := range rep.RouteMapDiffs {
		b.WriteString(d.Pair.String())
		b.WriteString("|" + d.Action1 + "|" + d.Action2)
		b.WriteString("|" + d.Text1.Location() + "|" + d.Text2.Location())
		for _, term := range d.Localization.Terms {
			b.WriteString("|" + term.String())
		}
		if d.Localization.ExampleRoute != nil {
			fmt.Fprintf(&b, "|%v", d.Localization.ExampleRoute)
		}
		for _, ct := range d.Localization.CommunityTerms {
			b.WriteString("|" + ct.String())
		}
		b.WriteString("\n")
	}
	for _, d := range rep.ACLDiffs {
		fmt.Fprintf(&b, "%s|%s|%s|%s|%s|%v|%v\n", d.Name1, d.Action1, d.Action2,
			d.Text1.Location(), d.Text2.Location(), d.Localization.SrcTerms, d.Localization.DstTerms)
	}
	for _, d := range rep.Structural {
		b.WriteString(d.String() + "\n")
	}
	fmt.Fprintf(&b, "unmatched %q %q\n", rep.UnmatchedACLs1, rep.UnmatchedACLs2)
	return b.String()
}

// TestParallelMatchesSequential: the worker-pool engine must produce
// byte-identical output to a fully sequential run, at every pool size.
func TestParallelMatchesSequential(t *testing.T) {
	c1, c2 := syntheticFleetPair(t, 6, 4)
	sequential, err := Diff(c1, c2, Options{Workers: 1, ExhaustiveCommunities: true})
	if err != nil {
		t.Fatal(err)
	}
	want := renderReport(sequential)
	if !strings.Contains(want, "SET LOCAL PREF") {
		t.Fatalf("synthetic pair found no differences:\n%s", want)
	}
	for _, workers := range []int{2, 3, 8, 0} {
		rep, err := Diff(c1, c2, Options{Workers: workers, ExhaustiveCommunities: true})
		if err != nil {
			t.Fatal(err)
		}
		if got := renderReport(rep); got != want {
			t.Errorf("workers=%d diverges from sequential:\n%s\nvs\n%s", workers, got, want)
		}
	}
}

// TestParallelDeterminism: repeated parallel runs are byte-identical.
func TestParallelDeterminism(t *testing.T) {
	c1, c2 := syntheticFleetPair(t, 5, 3)
	run := func() string {
		rep, err := Diff(c1, c2, Options{Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		return renderReport(rep)
	}
	first := run()
	for i := 0; i < 5; i++ {
		if got := run(); got != first {
			t.Fatalf("parallel run %d differs:\n%s\nvs\n%s", i, got, first)
		}
	}
}

// TestChainIdentityCache: the same policy applied to many neighbors is
// checked once — UniquePairs collapses below Pairs.
func TestChainIdentityCache(t *testing.T) {
	c1, c2 := syntheticFleetPair(t, 3, 5)
	rep, err := Diff(c1, c2, Options{Components: []Component{ComponentRouteMaps}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Stats) != 1 {
		t.Fatalf("stats entries = %d, want 1", len(rep.Stats))
	}
	st := rep.Stats[0]
	// 3 policies × 5 neighbors × {import, export} = 30 matched pairs, but
	// only 4 unique comparisons: 3 distinct import chains + the shared
	// empty export chain.
	if st.Pairs != 30 {
		t.Errorf("pairs = %d, want 30", st.Pairs)
	}
	if st.UniquePairs != 4 {
		t.Errorf("unique pairs = %d, want 4", st.UniquePairs)
	}
	if st.Workers < 1 {
		t.Errorf("workers = %d", st.Workers)
	}
	if st.BDDNodes == 0 || st.CacheMisses == 0 {
		t.Errorf("BDD stats not recorded: %+v", st)
	}
}

// TestPlusNamedPolicy: a route-map whose name contains '+' must be
// resolved as one policy, not split into nonexistent ones.
func TestPlusNamedPolicy(t *testing.T) {
	text := func(pref int) string {
		return fmt.Sprintf(`hostname r
route-map A+B permit 10
 set local-preference %d
router bgp 65001
 neighbor 10.0.12.2 remote-as 65002
 neighbor 10.0.12.2 route-map A+B in
`, pref)
	}
	c1, err := cisco.Parse("r1.cfg", text(100))
	if err != nil {
		t.Fatal(err)
	}
	c2, err := cisco.Parse("r2.cfg", text(200))
	if err != nil {
		t.Fatal(err)
	}
	if c1.RouteMaps["A+B"] == nil {
		t.Skip("parser does not accept '+' in route-map names")
	}
	rep, err := Diff(c1, c2, Options{Components: []Component{ComponentRouteMaps}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.RouteMapDiffs) != 1 {
		t.Fatalf("diffs = %d, want 1 (the local-pref difference)", len(rep.RouteMapDiffs))
	}
	d := rep.RouteMapDiffs[0]
	if len(d.Pair.Names1) != 1 || d.Pair.Names1[0] != "A+B" {
		t.Errorf("Names1 = %v, want [A+B]", d.Pair.Names1)
	}
	// Had the chain been round-tripped through the display string, the
	// undefined policies "A" and "B" would resolve to permit-all and the
	// SET LOCAL PREF difference would vanish.
	if !strings.Contains(d.Action1, "SET LOCAL PREF 100") || !strings.Contains(d.Action2, "SET LOCAL PREF 200") {
		t.Errorf("actions = %q / %q", d.Action1, d.Action2)
	}
}

// TestComponentStatsRecorded: every enabled component records a profile.
func TestComponentStatsRecorded(t *testing.T) {
	c1, c2 := syntheticFleetPair(t, 2, 2)
	rep, err := Diff(c1, c2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Stats) != len(AllComponents) {
		t.Fatalf("stats entries = %d, want %d", len(rep.Stats), len(AllComponents))
	}
	for i, st := range rep.Stats {
		if st.Component != AllComponents[i] {
			t.Errorf("stats[%d] = %s, want %s (canonical order)", i, st.Component, AllComponents[i])
		}
		if st.Kind != CheckKind(st.Component) {
			t.Errorf("%s kind = %q", st.Component, st.Kind)
		}
		if st.Duration < 0 {
			t.Errorf("%s duration negative", st.Component)
		}
	}
	// The ACL component also runs through the pool and records stats.
	for _, st := range rep.Stats {
		if st.Component == ComponentACLs {
			if st.Pairs != 1 || st.Workers < 1 || st.BDDNodes == 0 {
				t.Errorf("ACL stats = %+v", st)
			}
		}
	}
}
