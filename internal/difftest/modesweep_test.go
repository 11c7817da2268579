package difftest_test

import (
	"bytes"
	"context"
	"testing"

	"repro/campion"
	"repro/internal/aclgen"
	"repro/internal/cisco"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/juniper"
	"repro/internal/policygen"
)

// render flattens a report the way a user sees it; byte equality here is
// the strongest identity the execution modes promise.
func render(t *testing.T, rep *campion.Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := campion.Write(&buf, rep); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func modes() map[string]campion.Options {
	return map[string]campion.Options{
		"striped":     {Workers: 4},
		"policycache": {Workers: 1, PolicyCache: core.NewPolicyCache()},
	}
}

// routeMapSweepPair is the route-map sweep corpus's pair for one seed.
func routeMapSweepPair(t *testing.T, seed int) (*ir.Config, *ir.Config) {
	t.Helper()
	pair := policygen.Generate(policygen.Params{
		Seed:        uint64(seed),
		Clauses:     2 + seed%7,
		Communities: seed % 4,
		Differences: seed % 3,
	})
	c1, err := cisco.Parse("c.cfg", pair.CiscoText)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	c2, err := juniper.Parse("j.cfg", pair.JuniperText)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return c1, c2
}

// aclSweepPair is the ACL sweep corpus's pair for one seed.
func aclSweepPair(seed int) (*ir.Config, *ir.Config) {
	pair := aclgen.Generate(aclgen.Params{
		Seed:        uint64(seed),
		Rules:       3 + seed%8,
		Pools:       2 + seed%3,
		Differences: seed % 3,
	})
	mk := func(host string, acl *ir.ACL) *ir.Config {
		return &ir.Config{Hostname: host, ACLs: map[string]*ir.ACL{"GEN": acl}}
	}
	return mk("r1", pair.Cisco), mk("r2", pair.Juniper)
}

// TestRouteMapModeSweep: over the generated route-map corpus, every
// execution mode (intra-pair striping, the cross-call policy cache)
// renders byte-identical reports to the default engine. The oracle sweeps in this package check witness soundness;
// this one checks that the performance modes are invisible.
func TestRouteMapModeSweep(t *testing.T) {
	seeds := 500
	if testing.Short() {
		seeds = 60
	}
	for seed := 1; seed <= seeds; seed++ {
		c1, c2 := routeMapSweepPair(t, seed)
		base, err := campion.Diff(c1, c2, campion.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want := render(t, base)
		for name, opts := range modes() {
			rep, err := campion.Diff(c1, c2, opts)
			if err != nil {
				t.Fatalf("seed %d mode %s: %v", seed, name, err)
			}
			if got := render(t, rep); !bytes.Equal(got, want) {
				t.Fatalf("seed %d mode %s diverges:\n%s\nvs\n%s", seed, name, got, want)
			}
		}
	}
}

// TestACLModeSweep: the same invisibility contract for the ACL engine.
func TestACLModeSweep(t *testing.T) {
	seeds := 500
	if testing.Short() {
		seeds = 60
	}
	for seed := 1; seed <= seeds; seed++ {
		c1, c2 := aclSweepPair(seed)
		base, err := campion.Diff(c1, c2, campion.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want := render(t, base)
		for name, opts := range modes() {
			rep, err := campion.Diff(c1, c2, opts)
			if err != nil {
				t.Fatalf("seed %d mode %s: %v", seed, name, err)
			}
			if got := render(t, rep); !bytes.Equal(got, want) {
				t.Fatalf("seed %d mode %s diverges:\n%s\nvs\n%s", seed, name, got, want)
			}
		}
	}
}

// renderBoth is a report's text tables and its JSON.
func renderBoth(t *testing.T, rep *campion.Report) []byte {
	t.Helper()
	js, err := campion.JSON(rep)
	if err != nil {
		t.Fatal(err)
	}
	return append(render(t, rep), js...)
}

// checkMirror asserts, under the default options and every mode, that
// the reverse report of a joint pass over (c1, c2) renders — as tables
// and as JSON — byte-identical to an independent Diff(c2, c1). It
// returns the number of reverse differences seen.
func checkMirror(t *testing.T, seed int, c1, c2 *ir.Config) int {
	t.Helper()
	all := modes()
	all["default"] = campion.Options{}
	n := 0
	for name, opts := range all {
		_, rev, err := core.DiffBoth(context.Background(), c1, c2, opts)
		if err != nil {
			t.Fatalf("seed %d mode %s: %v", seed, name, err)
		}
		if rev == nil {
			t.Fatalf("seed %d mode %s: joint pass derived no reverse report", seed, name)
		}
		want, err := campion.Diff(c2, c1, opts)
		if err != nil {
			t.Fatalf("seed %d mode %s: %v", seed, name, err)
		}
		if got, want := renderBoth(t, rev), renderBoth(t, want); !bytes.Equal(got, want) {
			t.Fatalf("seed %d mode %s: reverse report diverges:\n%s\nvs\n%s", seed, name, got, want)
		}
		n += rev.TotalDifferences()
	}
	return n
}

// TestRouteMapMirrorSweep: over the route-map sweep corpus, the joint
// pass's reverse report is byte-identical to diffing the sides swapped.
func TestRouteMapMirrorSweep(t *testing.T) {
	seeds := 500
	if testing.Short() {
		seeds = 60
	}
	diffs := 0
	for seed := 1; seed <= seeds; seed++ {
		c1, c2 := routeMapSweepPair(t, seed)
		diffs += checkMirror(t, seed, c1, c2)
	}
	if diffs == 0 {
		t.Fatal("vacuous: no reverse differences in the corpus")
	}
}

// TestACLMirrorSweep: the same contract for the ACL sweep corpus.
func TestACLMirrorSweep(t *testing.T) {
	seeds := 500
	if testing.Short() {
		seeds = 60
	}
	diffs := 0
	for seed := 1; seed <= seeds; seed++ {
		c1, c2 := aclSweepPair(seed)
		diffs += checkMirror(t, seed, c1, c2)
	}
	if diffs == 0 {
		t.Fatal("vacuous: no reverse differences in the corpus")
	}
}
