package campion

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/fleet"
	"repro/internal/testnets"
)

// fleetConfigs parses a generated fleet into NamedConfigs.
func fleetConfigs(t *testing.T, members []testnets.FleetMember) []NamedConfig {
	t.Helper()
	out := make([]NamedConfig, len(members))
	for i, m := range members {
		cfg, err := Parse(m.Name+".cfg", m.Text)
		if err != nil {
			t.Fatalf("parse %s: %v", m.Name, err)
		}
		out[i] = NamedConfig{Name: m.Name, Config: cfg}
	}
	return out
}

func renderResult(t *testing.T, res BatchResult) string {
	t.Helper()
	var b bytes.Buffer
	fmt.Fprintf(&b, "=== %s ===\n", res.Name)
	switch {
	case res.Err != nil:
		fmt.Fprintf(&b, "error: %v\n", res.Err)
	case res.Report.TotalDifferences() == 0:
		b.WriteString("equivalent\n")
	default:
		if err := Write(&b, res.Report); err != nil {
			t.Fatalf("render %s: %v", res.Name, err)
		}
		js, err := JSON(res.Report)
		if err != nil {
			t.Fatalf("json %s: %v", res.Name, err)
		}
		b.Write(js)
	}
	return b.String()
}

// TestDiffFleetMatchesNaive is the golden sweep pinning the tentpole
// guarantee: clustered + expanded output is byte-identical (rendered
// text AND JSON, which includes file:line locations) to naive all-pairs
// DiffAll over the same fleet.
func TestDiffFleetMatchesNaive(t *testing.T) {
	members := testnets.Fleet(testnets.FleetParams{Devices: 14, Templates: 3, MutationRate: 0.15, Seed: 11})
	cfgs := fleetConfigs(t, members)

	naive, err := DiffAll(context.Background(), cfgs, BatchOptions{})
	if err != nil {
		t.Fatalf("naive: %v", err)
	}

	devices := make([]FleetDevice, len(cfgs))
	for i, c := range cfgs {
		devices[i] = FleetDevice{Name: c.Name, Config: c.Config}
	}
	fr, err := DiffFleet(context.Background(), devices, FleetOptions{})
	if err != nil {
		t.Fatalf("fleet: %v", err)
	}
	if fr.Stats.Classes >= len(devices) {
		t.Fatalf("no clustering: %d classes over %d devices", fr.Stats.Classes, len(devices))
	}
	if want := testnets.ExpectedClasses(members); fr.Stats.Classes != want {
		t.Fatalf("classes = %d, want %d", fr.Stats.Classes, want)
	}
	if fr.Stats.RepPairs >= len(naive) {
		t.Fatalf("representative pairs (%d) not fewer than naive pairs (%d)", fr.Stats.RepPairs, len(naive))
	}

	clustered := fr.Results()
	if len(clustered) != len(naive) {
		t.Fatalf("pair count: %d vs naive %d", len(clustered), len(naive))
	}
	for i := range naive {
		want := renderResult(t, naive[i])
		got := renderResult(t, clustered[i])
		if got != want {
			t.Fatalf("pair %d diverged:\n--- naive ---\n%s\n--- clustered ---\n%s", i, want, got)
		}
	}
}

// TestDiffAllCacheDirMatchesNaive pins the DiffAll wiring: with CacheDir
// the fleet path engages and stays byte-identical, cold and warm.
func TestDiffAllCacheDirMatchesNaive(t *testing.T) {
	members := testnets.Fleet(testnets.FleetParams{Devices: 10, Templates: 3, MutationRate: 0.2, Seed: 3})
	cfgs := fleetConfigs(t, members)

	naive, err := DiffAll(context.Background(), cfgs, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for run := 0; run < 2; run++ {
		got, err := DiffAll(context.Background(), cfgs, BatchOptions{CacheDir: dir})
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if len(got) != len(naive) {
			t.Fatalf("run %d: pair count %d vs %d", run, len(got), len(naive))
		}
		for i := range naive {
			if a, b := renderResult(t, naive[i]), renderResult(t, got[i]); a != b {
				t.Fatalf("run %d pair %d diverged:\n%s\nvs\n%s", run, i, a, b)
			}
		}
	}
}

// loaderDevices builds Load-based devices (the CLI shape) and a counter
// of how many parses actually ran.
func loaderDevices(t *testing.T, members []testnets.FleetMember, parses *int32, mu *sync.Mutex) []FleetDevice {
	t.Helper()
	out := make([]FleetDevice, len(members))
	for i, m := range members {
		m := m
		out[i] = FleetDevice{
			Name:       m.Name,
			File:       m.Name + ".cfg",
			ContentSum: fleet.ContentSum([]byte(m.Text)),
			Load: func() (*Config, error) {
				mu.Lock()
				*parses++
				mu.Unlock()
				return Parse(m.Name+".cfg", m.Text)
			},
		}
	}
	return out
}

// nonUTF8Members is a three-device fleet whose route-map name, and one
// hostname, hold bytes that are not valid UTF-8. encoding/json writes
// such bytes as U+FFFD, so a cache entry holding them would render a
// different report — and different table column widths — on a warm run.
// r1 differs from r0 only in its hostname, so r0 represents both: a warm
// fleet run renders r1's pairs from r1's hash entry, not from a parse.
func nonUTF8Members() []testnets.FleetMember {
	cfg := func(host, pref string) string {
		return "hostname " + host + "\n" +
			"ip prefix-list NETS permit 10.9.0.0/16 le 24\n" +
			"route-map POL\xff permit 10\n" +
			" match ip address NETS\n" +
			" set local-preference " + pref + "\n" +
			"route-map POL\xff deny 20\n" +
			"router bgp 65001\n" +
			" neighbor 10.0.12.2 remote-as 65002\n" +
			" neighbor 10.0.12.2 route-map POL\xff in\n"
	}
	return []testnets.FleetMember{
		{Name: "r0", Text: cfg("r0", "100")},
		{Name: "r1", Text: cfg("r1\xe9", "100")},
		{Name: "r2", Text: cfg("r2", "200")},
	}
}

// TestDiffFleetWarmCache: a second run over an unchanged fleet parses
// nothing, diffs nothing, and still produces byte-identical output. A
// fleet whose text JSON cannot carry is never persisted, so its warm
// run recomputes — with the same output.
func TestDiffFleetWarmCache(t *testing.T) {
	for _, tc := range []struct {
		name     string
		members  []testnets.FleetMember
		wantWarm bool // the warm run is served from the cache alone
	}{
		{"fleet", testnets.Fleet(testnets.FleetParams{Devices: 12, Templates: 3, MutationRate: 0.1, Seed: 5}), true},
		{"non-utf8", nonUTF8Members(), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			members := tc.members
			dir := t.TempDir()
			var mu sync.Mutex
			var parses int32

			cold, err := DiffFleet(context.Background(), loaderDevices(t, members, &parses, &mu), FleetOptions{CacheDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if parses != int32(len(members)) {
				t.Fatalf("cold run parsed %d devices, want %d", parses, len(members))
			}
			if cold.Stats.RepComputed == 0 || cold.Stats.Cache.ReportMisses == 0 {
				t.Fatalf("cold run did no work: %+v", cold.Stats)
			}

			parses = 0
			warm, err := DiffFleet(context.Background(), loaderDevices(t, members, &parses, &mu), FleetOptions{CacheDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if tc.wantWarm {
				if parses != 0 {
					t.Fatalf("warm run parsed %d devices, want 0", parses)
				}
				if warm.Stats.RepComputed != 0 {
					t.Fatalf("warm run recomputed %d representative pairs", warm.Stats.RepComputed)
				}
				if warm.Stats.ParsesAvoided != len(members) {
					t.Fatalf("ParsesAvoided = %d, want %d", warm.Stats.ParsesAvoided, len(members))
				}
			} else if warm.Stats.RepComputed != cold.Stats.RepComputed {
				t.Fatalf("warm run recomputed %d representative pairs, want %d (nothing persisted)",
					warm.Stats.RepComputed, cold.Stats.RepComputed)
			}
			coldRes, warmRes := cold.Results(), warm.Results()
			for i := range coldRes {
				if a, b := renderResult(t, coldRes[i]), renderResult(t, warmRes[i]); a != b {
					t.Fatalf("pair %d: warm output diverged from cold:\n%s\nvs\n%s", i, a, b)
				}
			}
		})
	}
}

// TestDiffFleetCacheCorruption: trashing every cache entry between runs
// degrades to recomputation, never to an error or wrong output.
func TestDiffFleetCacheCorruption(t *testing.T) {
	members := testnets.Fleet(testnets.FleetParams{Devices: 8, Templates: 2, MutationRate: 0, Seed: 1})
	dir := t.TempDir()
	var mu sync.Mutex
	var parses int32

	cold, err := DiffFleet(context.Background(), loaderDevices(t, members, &parses, &mu), FleetOptions{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}

	// Corrupt every entry in place.
	n := 0
	filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			os.WriteFile(path, []byte("garbage"), 0o644)
			n++
		}
		return nil
	})
	if n == 0 {
		t.Fatal("no cache entries written")
	}

	parses = 0
	rerun, err := DiffFleet(context.Background(), loaderDevices(t, members, &parses, &mu), FleetOptions{CacheDir: dir})
	if err != nil {
		t.Fatalf("rerun over corrupted cache: %v", err)
	}
	if parses == 0 {
		t.Fatal("corrupted hash entries should have forced re-parsing")
	}
	if rerun.Stats.Cache.Corrupt == 0 {
		t.Fatal("corruption not counted")
	}
	a, b := cold.Results(), rerun.Results()
	for i := range a {
		if x, y := renderResult(t, a[i]), renderResult(t, b[i]); x != y {
			t.Fatalf("pair %d diverged after corruption recovery", i)
		}
	}
}

// TestDiffFleetConcurrentSharedCacheDir: two concurrent audits sharing
// one cache directory (the documented last-writer-wins model) both
// succeed with identical output. Run under -race in CI.
func TestDiffFleetConcurrentSharedCacheDir(t *testing.T) {
	members := testnets.Fleet(testnets.FleetParams{Devices: 8, Templates: 2, MutationRate: 0.1, Seed: 9})
	dir := t.TempDir()
	results := make([][]BatchResult, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var mu sync.Mutex
			var parses int32
			fr, err := DiffFleet(context.Background(),
				loaderDevices(t, members, &parses, &mu), FleetOptions{CacheDir: dir})
			errs[g] = err
			if fr != nil {
				results[g] = fr.Results()
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", g, err)
		}
	}
	for i := range results[0] {
		if a, b := renderResult(t, results[0][i]), renderResult(t, results[1][i]); a != b {
			t.Fatalf("concurrent runs diverged at pair %d", i)
		}
	}
}

// TestDiffFleetParanoid: clean fleets pass; a forged hash collision
// (two semantically different devices claiming one hash) is detected.
func TestDiffFleetParanoid(t *testing.T) {
	members := testnets.Fleet(testnets.FleetParams{Devices: 6, Templates: 2, MutationRate: 0, Seed: 2})
	devices := make([]FleetDevice, len(members))
	for i, m := range members {
		cfg, err := Parse(m.Name+".cfg", m.Text)
		if err != nil {
			t.Fatal(err)
		}
		devices[i] = FleetDevice{Name: m.Name, Config: cfg}
	}
	if _, err := DiffFleet(context.Background(), devices, FleetOptions{Paranoid: true}); err != nil {
		t.Fatalf("paranoid on honest fleet: %v", err)
	}

	// Forge a collision: devices 0 and 1 are different templates but
	// claim the same hash.
	forged := append([]FleetDevice(nil), devices...)
	forged[0].Hash = "forged-hash"
	forged[1].Hash = "forged-hash"
	if _, err := DiffFleet(context.Background(), forged, FleetOptions{Paranoid: true}); err == nil {
		t.Fatal("paranoid mode missed a forged hash collision")
	} else if !strings.Contains(err.Error(), "collision") {
		t.Fatalf("unexpected paranoid error: %v", err)
	}
}

// TestDiffFleetDeviceErrors: unparseable devices surface per-pair errors
// in the expansion, shaped like naive DiffAll's missing-config errors.
func TestDiffFleetDeviceErrors(t *testing.T) {
	members := testnets.Fleet(testnets.FleetParams{Devices: 4, Templates: 2, MutationRate: 0, Seed: 4})
	devices := make([]FleetDevice, len(members))
	for i, m := range members {
		if i == 1 {
			devices[i] = FleetDevice{Name: m.Name, Load: func() (*Config, error) {
				return nil, fmt.Errorf("synthetic parse failure")
			}}
			continue
		}
		cfg, err := Parse(m.Name+".cfg", m.Text)
		if err != nil {
			t.Fatal(err)
		}
		devices[i] = FleetDevice{Name: m.Name, Config: cfg}
	}
	fr, err := DiffFleet(context.Background(), devices, FleetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fr.Stats.Failed != 1 {
		t.Fatalf("Failed = %d, want 1", fr.Stats.Failed)
	}
	res := fr.Results()
	if len(res) != 6 {
		t.Fatalf("pair count %d, want 6 (failed devices still occupy pairs)", len(res))
	}
	bad := 0
	for _, r := range res {
		if strings.Contains(r.Name, members[1].Name) {
			if r.Err == nil || ErrKind(r.Err) != "parse" {
				t.Fatalf("pair %s: want parse error, got %v", r.Name, r.Err)
			}
			var pe *PairError
			if !asPairError(r.Err, &pe) || pe.Pair != r.Name {
				t.Fatalf("pair %s: error not retargeted: %v", r.Name, r.Err)
			}
			bad++
		} else if r.Err != nil {
			t.Fatalf("healthy pair %s errored: %v", r.Name, r.Err)
		}
	}
	if bad != 3 {
		t.Fatalf("expected 3 failing pairs, got %d", bad)
	}
}

// TestDiffBatchCacheDir: the per-pair report cache in DiffBatch serves
// byte-identical reports on a warm run, also for pairs whose text is not
// valid UTF-8 (see nonUTF8Members).
func TestDiffBatchCacheDir(t *testing.T) {
	members := testnets.Fleet(testnets.FleetParams{Devices: 4, Templates: 4, MutationRate: 0, Seed: 6})
	cfgs := fleetConfigs(t, append(members, nonUTF8Members()...))
	var pairs []ConfigPair
	for i := 0; i < len(cfgs); i++ {
		for j := i + 1; j < len(cfgs); j++ {
			pairs = append(pairs, ConfigPair{
				Name:    fmt.Sprintf("%s vs %s", cfgs[i].Name, cfgs[j].Name),
				Config1: cfgs[i].Config, Config2: cfgs[j].Config,
			})
		}
	}
	naive, err := DiffBatch(context.Background(), pairs, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for run := 0; run < 2; run++ {
		got, err := DiffBatch(context.Background(), pairs, BatchOptions{CacheDir: dir})
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		for i := range naive {
			if a, b := renderResult(t, naive[i]), renderResult(t, got[i]); a != b {
				t.Fatalf("run %d pair %d diverged", run, i)
			}
		}
	}
	entries, err := os.ReadDir(filepath.Join(dir, "v1", "reports"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("no report entries persisted: %v", err)
	}
}

func asPairError(err error, out **PairError) bool {
	pe, ok := err.(*PairError)
	if ok {
		*out = pe
	}
	return ok
}
