package campion

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/testnets"
)

// memoTemplates parses two devices of different fleet templates, named
// after their files unless anonymous (File "").
func memoTemplates(t *testing.T, anonymous bool) (a, b *Config) {
	t.Helper()
	members := testnets.Fleet(testnets.FleetParams{Devices: 2, Templates: 2, Seed: 3})
	parse := func(m testnets.FleetMember) *Config {
		file := m.Name + ".cfg"
		if anonymous {
			file = ""
		}
		cfg, err := Parse(file, m.Text)
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	return parse(members[0]), parse(members[1])
}

// memoBatch diffs (a, b) alone or, given (b, a) too, both in one joint
// job, on one batch worker with the store's component memo. It checks
// every successful result against a lone, memo-free diff of its pair.
func memoBatch(t *testing.T, store *fleet.Store, opts Options, pairs ...ConfigPair) ([]BatchResult, componentCounts) {
	t.Helper()
	jobs := [][2]int{{0, -1}}
	if len(pairs) == 2 {
		jobs = [][2]int{{0, 1}}
	}
	results, _, n, err := diffBatch(context.Background(), pairs, jobs, BatchOptions{Options: opts, BatchWorkers: 1}, store, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Err != nil {
			continue
		}
		want, err := DiffContext(context.Background(), pairs[i].Config1, pairs[i].Config2, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := renderResult(t, res), renderResult(t, BatchResult{Name: res.Name, Report: want}); got != want {
			t.Fatalf("%s diverges from a lone diff:\n%s\nvs\n%s", res.Name, got, want)
		}
	}
	return results, n
}

// orient returns the pairs (a, b) and (b, a).
func orient(a, b *Config) (ab, ba ConfigPair) {
	return ConfigPair{Name: "a vs b", Config1: a, Config2: b}, ConfigPair{Name: "b vs a", Config1: b, Config2: a}
}

// TestComponentMemoJointRule: a joint job recalls a component only when
// both orientations are memoized; otherwise its joint pass computes the
// component and memoizes both parts, so the next joint job recalls them.
func TestComponentMemoJointRule(t *testing.T) {
	ab, ba := orient(memoTemplates(t, false))
	store := fleet.OpenMemStore()
	if _, n := memoBatch(t, store, Options{}, ab); n != (componentCounts{computed: 2}) {
		t.Fatalf("lone (a, b): %+v, want 2 computed", n)
	}
	if _, n := memoBatch(t, store, Options{}, ab); n != (componentCounts{recalled: 2}) {
		t.Fatalf("lone (a, b) again: %+v, want 2 recalled", n)
	}
	// Only (a, b) is memoized: the joint job computes both components in
	// both orientations.
	if _, n := memoBatch(t, store, Options{}, ab, ba); n != (componentCounts{computed: 4}) {
		t.Fatalf("first joint job: %+v, want 4 computed", n)
	}
	if _, n := memoBatch(t, store, Options{}, ab, ba); n != (componentCounts{recalled: 4}) {
		t.Fatalf("second joint job: %+v, want 4 recalled", n)
	}
	if _, n := memoBatch(t, store, Options{}, ba); n != (componentCounts{recalled: 2}) {
		t.Fatalf("lone (b, a) after the joint pass: %+v, want 2 recalled", n)
	}
}

// TestComponentMemoAllRecalled: with every enabled component recalled,
// core does not run at all — an empty Components would mean all seven
// checks to it, and the report would gain structural differences.
func TestComponentMemoAllRecalled(t *testing.T) {
	ab, ba := orient(memoTemplates(t, false))
	store := fleet.OpenMemStore()
	opts := Options{Components: []core.Component{core.ComponentRouteMaps}}
	if _, n := memoBatch(t, store, opts, ab, ba); n != (componentCounts{computed: 2}) {
		t.Fatalf("cold: %+v, want 2 computed", n)
	}
	results, n := memoBatch(t, store, opts, ab, ba)
	if n != (componentCounts{recalled: 2}) {
		t.Fatalf("warm: %+v, want 2 recalled", n)
	}
	for _, res := range results {
		if len(res.Report.RouteMapDiffs) == 0 || len(res.Report.Structural) != 0 || len(res.Report.ACLDiffs) != 0 {
			t.Fatalf("%s: %d route-map, %d structural, %d ACL differences; want route-map ones only",
				res.Name, len(res.Report.RouteMapDiffs), len(res.Report.Structural), len(res.Report.ACLDiffs))
		}
	}
}

// TestComponentMemoSkipsFailures: a pair that fails (here on its
// MaxNodes budget) memoizes none of its components.
func TestComponentMemoSkipsFailures(t *testing.T) {
	a, b := memoTemplates(t, false)
	ab, ba := orient(a, b)
	store := fleet.OpenMemStore()
	results, n := memoBatch(t, store, Options{MaxNodes: 16}, ab, ba)
	if results[0].Err == nil || n != (componentCounts{}) {
		t.Fatalf("budgeted joint job: error %v, counts %+v; want a failure and no counts", results[0].Err, n)
	}
	fp := fleet.OptionsFingerprint(core.Options{})
	da, db := fleet.Digests(a), fleet.Digests(b)
	for _, k := range [][2]fleet.ComponentDigests{{da, db}, {db, da}} {
		if _, ok := store.GetComponent(core.ComponentRouteMaps, fp, k[0].RouteMaps, k[1].RouteMaps); ok {
			t.Fatal("a failed pair memoized its route-map component")
		}
		if _, ok := store.GetComponent(core.ComponentACLs, fp, k[0].ACLs, k[1].ACLs); ok {
			t.Fatal("a failed pair memoized its ACL component")
		}
	}
	if _, n := memoBatch(t, store, Options{}, ab, ba); n != (componentCounts{computed: 4}) {
		t.Fatalf("unbudgeted joint job: %+v, want 4 computed", n)
	}
}

// TestComponentMemoEmptyFile: parts computed for configurations without
// a file name are never served to named ones, whose spans carry files.
func TestComponentMemoEmptyFile(t *testing.T) {
	store := fleet.OpenMemStore()
	ab0, ba0 := orient(memoTemplates(t, true))
	if _, n := memoBatch(t, store, Options{}, ab0, ba0); n != (componentCounts{computed: 4}) {
		t.Fatalf("anonymous pair: %+v, want 4 computed", n)
	}
	ab, ba := orient(memoTemplates(t, false))
	if _, n := memoBatch(t, store, Options{}, ab, ba); n != (componentCounts{computed: 4}) {
		t.Fatalf("named pair after the anonymous one: %+v, want 4 computed", n)
	}
	if _, n := memoBatch(t, store, Options{}, ab0, ba0); n != (componentCounts{recalled: 4}) {
		t.Fatalf("anonymous pair again: %+v, want 4 recalled", n)
	}
}
