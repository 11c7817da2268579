package core

import (
	"strings"
	"testing"

	"repro/internal/cisco"
	"repro/internal/obs"
)

// spanIndex maps a span snapshot by ID for parent-edge checks.
func spanIndex(spans []obs.SpanInfo) map[int]obs.SpanInfo {
	byID := make(map[int]obs.SpanInfo, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	return byID
}

// TestDiffSpanTree: a sequential Diff on the cross-pair cache path emits
// one "diff" root whose children are exactly the component spans, with
// chain-pair spans nested directly under the route-maps component (no
// worker pool in between).
func TestDiffSpanTree(t *testing.T) {
	c1, c2 := syntheticFleetPair(t, 3, 2)
	tr := obs.NewTracer()
	if _, err := Diff(c1, c2, Options{Workers: 1, PolicyCache: NewPolicyCache(), Tracer: tr}); err != nil {
		t.Fatal(err)
	}
	spans := tr.Spans()
	byID := spanIndex(spans)

	var roots, components, chainPairs int
	for _, s := range spans {
		switch {
		case s.Parent == -1:
			roots++
			if s.Name != "diff" {
				t.Errorf("root span %q, want diff", s.Name)
			}
			if s.Attr("host1") != "r1" || s.Attr("host2") != "r2" {
				t.Errorf("diff attrs = %v", s.Attrs)
			}
		case s.Name == "chain-pair":
			chainPairs++
			// Sequential runs nest chain pairs directly under route-maps.
			if p := byID[s.Parent]; p.Name != string(ComponentRouteMaps) {
				t.Errorf("chain-pair parented by %q", p.Name)
			}
		case byID[s.Parent].Name == "diff":
			components++
			if s.Attr("kind") == "" {
				t.Errorf("component span %s lacks kind attr", s.Name)
			}
		}
	}
	if roots != 1 {
		t.Errorf("roots = %d, want 1", roots)
	}
	if components != len(AllComponents) {
		t.Errorf("component spans = %d, want %d", components, len(AllComponents))
	}
	// 3 distinct import chains + the shared empty export chain.
	if chainPairs != 4 {
		t.Errorf("chain-pair spans = %d, want 4", chainPairs)
	}
}

// TestDiffSpanTreeParallel: under a worker pool the parent edges stay
// exact — every chain-pair hangs off a worker span, every worker span off
// the route-maps component — because edges are explicit, never inferred
// from goroutine identity. Run with -race.
func TestDiffSpanTreeParallel(t *testing.T) {
	c1, c2 := syntheticFleetPair(t, 6, 3)
	tr := obs.NewTracer()
	if _, err := Diff(c1, c2, Options{Workers: 4, Tracer: tr}); err != nil {
		t.Fatal(err)
	}
	spans := tr.Spans()
	byID := spanIndex(spans)

	var chainPairs int
	for _, s := range spans {
		if s.Name != "chain-pair" {
			continue
		}
		chainPairs++
		w := byID[s.Parent]
		if w.Name != "worker" {
			t.Fatalf("chain-pair parented by %q, want worker", w.Name)
		}
		if w.Attr("worker") == "" {
			t.Errorf("worker span lacks worker attr: %v", w.Attrs)
		}
		if comp := byID[w.Parent]; comp.Name != string(ComponentRouteMaps) {
			t.Errorf("worker parented by %q, want %s", comp.Name, ComponentRouteMaps)
		}
	}
	// 6 distinct import chains + the shared empty export chain.
	if chainPairs != 7 {
		t.Errorf("chain-pair spans = %d, want 7", chainPairs)
	}
	// Worker spans must carry the queue accounting they advertise.
	for _, s := range spans {
		if s.Name == "worker" && (s.Attr("queueWait") == "" || s.Attr("compute") == "") {
			t.Errorf("worker span missing wait/compute attrs: %v", s.Attrs)
		}
	}
}

// TestPolicyCacheStatsDelta is the double-count regression test: with a
// shared PolicyCache, the factory and its counters live across Diff
// calls, so each call must report only its own delta. Before the fix the
// second identical call re-reported the full cumulative node count.
func TestPolicyCacheStatsDelta(t *testing.T) {
	c1, c2 := syntheticFleetPair(t, 4, 3)
	pc := NewPolicyCache()
	opts := Options{Workers: 1, PolicyCache: pc, Components: []Component{ComponentRouteMaps}}

	first, err := Diff(c1, c2, opts)
	if err != nil {
		t.Fatal(err)
	}
	st1 := first.Stats[0]
	if st1.BDDNodes == 0 {
		t.Fatalf("first call charged no BDD nodes: %+v", st1)
	}
	if st1.PolicyCacheHits != 0 {
		t.Errorf("first call hit a cold cache %d times", st1.PolicyCacheHits)
	}

	second, err := Diff(c1, c2, opts)
	if err != nil {
		t.Fatal(err)
	}
	st2 := second.Stats[0]
	// Every chain is compiled, every BDD interned: the second call does
	// only the (cached) compare work. A tiny number of fresh nodes is
	// fine; re-reporting the first call's thousands is the bug.
	if st2.BDDNodes*10 > st1.BDDNodes {
		t.Errorf("second call charged %d nodes vs first call's %d — cumulative, not delta",
			st2.BDDNodes, st1.BDDNodes)
	}
	if st2.PolicyCacheHits == 0 {
		t.Error("second call recorded no policy-cache hits")
	}

	if pc.Rebuilds != 1 {
		t.Fatalf("rebuilds after two calls on one pair = %d, want 1", pc.Rebuilds)
	}

	// A pair whose vocabulary the first lacks (a community atom) forces an
	// encoding rebuild, which Resets the factory; the delta must not go
	// negative.
	c3, err := cisco.Parse("r3.cfg", "hostname r3\nroute-map POL0 permit 10\n set local-preference 100\n")
	if err != nil {
		t.Fatal(err)
	}
	c4, err := cisco.Parse("r4.cfg", "hostname r4\nroute-map POL0 permit 10\n set community 65001:7\n")
	if err != nil {
		t.Fatal(err)
	}
	third, err := Diff(c3, c4, opts)
	if err != nil {
		t.Fatal(err)
	}
	if pc.Rebuilds != 2 {
		t.Fatalf("rebuilds after a new vocabulary = %d, want 2", pc.Rebuilds)
	}
	if st3 := third.Stats[0]; st3.BDDNodes <= 0 {
		t.Errorf("post-rebuild call charged %d nodes, want > 0", st3.BDDNodes)
	}
}

// TestPolicyCacheMetrics: the cross-pair cache reports fingerprint-
// labeled hit/miss/rebuild counters into the registry.
func TestPolicyCacheMetrics(t *testing.T) {
	c1, c2 := syntheticFleetPair(t, 3, 2)
	reg := obs.NewRegistry()
	pc := NewPolicyCache()
	opts := Options{Workers: 1, PolicyCache: pc, Metrics: reg,
		Components: []Component{ComponentRouteMaps}}
	for i := 0; i < 2; i++ {
		if _, err := Diff(c1, c2, opts); err != nil {
			t.Fatal(err)
		}
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, metric := range []string{
		MetricPolicyChainHits, MetricPolicyChainMisses,
		MetricBDDNodes, MetricComponentLatency + "_count", MetricDiffsFound,
	} {
		if !strings.Contains(out, metric) {
			t.Errorf("exposition missing %s:\n%s", metric, out)
		}
	}
	// The fingerprint label is a bounded digest, not the raw vocabulary.
	if !strings.Contains(out, `fingerprint="`) {
		t.Errorf("policy-cache series lack a fingerprint label:\n%s", out)
	}
}

// TestObsDisabledIsFreeOfSpans: with no tracer and no registry, Diff must
// not record anything anywhere (guard against accidentally defaulting to
// the global registry in the hot path).
func TestObsDisabledIsFreeOfSpans(t *testing.T) {
	c1, c2 := syntheticFleetPair(t, 2, 2)
	if _, err := Diff(c1, c2, Options{}); err != nil {
		t.Fatal(err)
	}
	var tr *obs.Tracer
	if tr.Spans() != nil {
		t.Error("nil tracer accumulated spans")
	}
}
