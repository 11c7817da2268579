package core

import (
	"testing"

	"repro/internal/aclgen"
	"repro/internal/cisco"
	"repro/internal/ir"
	"repro/internal/juniper"
	"repro/internal/policygen"
)

// genPolicyConfigs parses a generated route-map pair into standalone
// configs: one same-named policy, so the diff is a single task — the
// shape intra-pair striping exists for.
func genPolicyConfigs(t testing.TB, seed uint64, clauses int) (*ir.Config, *ir.Config) {
	t.Helper()
	pair := policygen.Generate(policygen.Params{Seed: seed, Clauses: clauses, Communities: 3, Differences: 4})
	c1, err := cisco.Parse("c.cfg", pair.CiscoText)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := juniper.Parse("j.cfg", pair.JuniperText)
	if err != nil {
		t.Fatal(err)
	}
	return c1, c2
}

// genACLConfigs wraps a generated ACL pair in minimal configs sharing
// one ACL name.
func genACLConfigs(t testing.TB, seed uint64, rules int) (*ir.Config, *ir.Config) {
	t.Helper()
	pair := aclgen.Generate(aclgen.Params{Seed: seed, Rules: rules, Pools: 6, Differences: 5})
	mk := func(host string, acl *ir.ACL) *ir.Config {
		return &ir.Config{Hostname: host, ACLs: map[string]*ir.ACL{"BIG": acl}}
	}
	return mk("r1", pair.Cisco), mk("r2", pair.Juniper)
}

// TestStripedRouteMapMatchesSequential: with the striping threshold
// lowered so a small pair qualifies, the region-partitioned engine must
// produce byte-identical reports to the sequential one at every worker
// count — and must actually engage (Stripes recorded).
func TestStripedRouteMapMatchesSequential(t *testing.T) {
	defer func(v int) { stripeMinClauses = v }(stripeMinClauses)
	stripeMinClauses = 4

	c1, c2 := genPolicyConfigs(t, 2, 12)
	seq, err := Diff(c1, c2, Options{Workers: 1, Components: []Component{ComponentRouteMaps}})
	if err != nil {
		t.Fatal(err)
	}
	want := renderReport(seq)
	if len(seq.RouteMapDiffs) == 0 {
		t.Fatal("generated pair produced no diffs; test is vacuous")
	}
	for _, workers := range []int{2, 3, 4} {
		rep, err := Diff(c1, c2, Options{Workers: workers, Components: []Component{ComponentRouteMaps}})
		if err != nil {
			t.Fatal(err)
		}
		if got := renderReport(rep); got != want {
			t.Errorf("workers=%d striped report diverges:\n%s\nvs\n%s", workers, got, want)
		}
		if st := rep.Stats[0]; st.Stripes < workers {
			t.Errorf("workers=%d: stripes=%d, striping did not engage", workers, st.Stripes)
		}
	}
}

// TestStripedACLMatchesSequential: same exactness contract for the ACL
// striping path.
func TestStripedACLMatchesSequential(t *testing.T) {
	defer func(v int) { stripeMinLines = v }(stripeMinLines)
	stripeMinLines = 8

	c1, c2 := genACLConfigs(t, 3, 60)
	seq, err := Diff(c1, c2, Options{Workers: 1, Components: []Component{ComponentACLs}})
	if err != nil {
		t.Fatal(err)
	}
	want := renderReport(seq)
	if len(seq.ACLDiffs) == 0 {
		t.Fatal("generated ACL pair produced no diffs; test is vacuous")
	}
	for _, workers := range []int{2, 4} {
		rep, err := Diff(c1, c2, Options{Workers: workers, Components: []Component{ComponentACLs}})
		if err != nil {
			t.Fatal(err)
		}
		if got := renderReport(rep); got != want {
			t.Errorf("workers=%d striped ACL report diverges:\n%s\nvs\n%s", workers, got, want)
		}
		if st := rep.Stats[0]; st.Stripes < workers {
			t.Errorf("workers=%d: stripes=%d, striping did not engage", workers, st.Stripes)
		}
	}
}

// TestStripedDeterminism: repeated striped runs are byte-identical (the
// merge sorts by DFS path keys, so goroutine scheduling cannot leak in).
func TestStripedDeterminism(t *testing.T) {
	defer func(v int) { stripeMinClauses = v }(stripeMinClauses)
	stripeMinClauses = 4
	c1, c2 := genPolicyConfigs(t, 9, 10)
	run := func() string {
		rep, err := Diff(c1, c2, Options{Workers: 4, Components: []Component{ComponentRouteMaps}})
		if err != nil {
			t.Fatal(err)
		}
		return renderReport(rep)
	}
	first := run()
	for i := 0; i < 5; i++ {
		if got := run(); got != first {
			t.Fatalf("striped run %d differs:\n%s\nvs\n%s", i, got, first)
		}
	}
}
