package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"testing"
	"time"
)

// testConfig shrinks every workload, shape rows included, so the suite
// runs in seconds.
func testConfig(t *testing.T, trace bool) config {
	return config{
		seed: 7, seconds: 300 * time.Millisecond, trace: trace, root: "..", out: t.TempDir(),
		size: sizes{
			setupReps:   1,
			policyPairs: 3, aclRules: 120, rmClauses: 30,
			shapes:       []shape{{"shape.acl1k_s", 100}, {"shape.acl10k_s", 200}},
			fleetDevices: 24, fleetWarm: 2, fleetWrites: 25, readsPerWrite: 4, sampleEvery: 4,
		},
	}
}

func TestQuantileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, ok := quantile(xs[:99], 0.9); ok {
		t.Error("p90 of 99 samples has only 9 beyond it")
	}
	if v, ok := quantile(xs, 0.9); !ok || math.Abs(v-89.1) > 1e-9 {
		t.Errorf("p90 of 100 samples = %v, %v; want 89.1, true", v, ok)
	}
	if _, ok := quantile(xs[:19], 0.5); ok {
		t.Error("p50 of 19 samples has only 9 beyond it")
	}
}

// inputDigest fingerprints what a workload feeds the program for a
// seed, in the order it feeds it.
func inputDigest(t *testing.T, workload string, seed int64) string {
	cfg := config{seed: seed, root: "..", size: defaultSizes()}
	h := sha256.New()
	write := func(parts ...string) {
		for _, p := range parts {
			fmt.Fprintf(h, "%d:%s", len(p), p)
		}
	}
	switch workload {
	case "fleet-daemon":
		in := genFleet(seed, cfg.size)
		for _, n := range in.names {
			write(n, in.initial[n])
		}
		for _, st := range in.steps {
			write(st.device, st.text)
			for i, p := range st.reads {
				write(p[0], p[1], fmt.Sprint(st.sample[i]))
			}
		}
	default:
		load := func() ([]*pairInput, error) { return genPolicyPairs(cfg.size), nil }
		if workload == "paper-pairs" {
			load = func() ([]*pairInput, error) { return loadGolden(cfg.root) }
		}
		p, err := setupPairs(cfg, load, 0)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < 3; c++ {
			for _, i := range p.cycle() {
				in := p.inputs[i]
				write(in.file1, in.text1, in.file2, in.text2, string(in.want))
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestSeedGivesIdenticalInputs(t *testing.T) {
	for name := range workloads {
		a, b := inputDigest(t, name, 42), inputDigest(t, name, 42)
		if a != b {
			t.Errorf("%s: seed 42 gave different inputs on two calls", name)
		}
		if inputDigest(t, name, 43) == a {
			t.Errorf("%s: seeds 42 and 43 gave identical inputs", name)
		}
	}
}

// countMetrics are the replay counts later changes may claim gains on;
// they must not depend on timing.
var countMetrics = []string{
	"bdd.nodes", "bdd.cache_hit_ratio", "symbolic.paths", "semdiff.regions", "core.stripes",
	"fleet.rep_pairs", "fleet.rediff_ratio", "fleet.store_hit_ratio",
}

func TestReplayCountsRepeat(t *testing.T) {
	for name := range workloads {
		var runs [2]*result
		for i := range runs {
			cfg := testConfig(t, true)
			cfg.seconds = time.Duration(i+1) * 100 * time.Millisecond // a different number of ops
			res, err := workloads[name](cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			runs[i] = res
		}
		for _, m := range countMetrics {
			a, ok := runs[0].Metrics[m]
			if !ok {
				t.Errorf("%s: %s not reported", name, m)
				continue
			}
			if b := runs[1].Metrics[m]; a != b {
				t.Errorf("%s: %s = %v then %v", name, m, a.Value, b.Value)
			}
		}
	}
}

// fleetState runs the fleet-daemon script, each request delayed by
// pause, and returns the daemon's device hashes and classes.
func fleetState(t *testing.T, pause time.Duration) []byte {
	cfg := testConfig(t, false)
	r, err := setupFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := r.h
	r.h = http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		time.Sleep(pause)
		h.ServeHTTP(w, req)
	})
	r.measure(nil, nil, cfg.size.fleetWarm, 0)
	if failed, _ := r.referee(); failed != 0 {
		t.Fatalf("%d failed ops", failed)
	}
	sum, err := r.sess.Fleet()
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Classes) != fleetClasses {
		t.Errorf("%d classes, want %d", len(sum.Classes), fleetClasses)
	}
	state, err := json.Marshal([]any{sum.Devices, sum.Classes})
	if err != nil {
		t.Fatal(err)
	}
	return state
}

func TestFleetStateIndependentOfSpeed(t *testing.T) {
	if fast, slow := fleetState(t, 0), fleetState(t, 2*time.Millisecond); string(fast) != string(slow) {
		t.Errorf("slowed ops changed the daemon's end state:\n%s\n%s", fast, slow)
	}
}

// declared reads BENCHMARK.json's metric names and units per kind. Every
// workload must print exactly the declared set of its kind.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func TestMetricsDeclared(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, trace := range []bool{false, true} {
		want := endToEnd
		if trace {
			want = perLayer
		}
		for name, run := range workloads {
			res, err := run(testConfig(t, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s trace=%v: %d of %d ops failed", name, trace, res.Failed, res.Attempted)
			}
			for m, v := range res.Metrics {
				if unit, ok := want[m]; !ok || unit != v.Unit {
					t.Errorf("%s trace=%v: metric %s (%s) is not declared with that unit", name, trace, m, v.Unit)
				}
			}
			for m := range want {
				if _, ok := res.Metrics[m]; !ok {
					t.Errorf("%s trace=%v: declared metric %s is not printed", name, trace, m)
				}
			}
		}
	}
}
