package fleet

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
)

func testReport(t *testing.T) *core.Report {
	t.Helper()
	c1 := parseCisco(t, "a.cfg", hashBaseCfg)
	c2 := parseCisco(t, "b.cfg", strings.Replace(
		strings.Replace(hashBaseCfg, "hostname alpha", "hostname beta", 1),
		"local-preference 120", "local-preference 200", 1))
	rep, err := core.Diff(c1, c2, core.Options{})
	if err != nil {
		t.Fatalf("diff: %v", err)
	}
	if rep.TotalDifferences() == 0 {
		t.Fatal("test pair reports no differences")
	}
	return rep
}

// checkMemoized asserts that got, a report the memo serves for rep,
// renders byte-identically (text and JSON) to rep and to rep's wire
// round-trip, and has the wire shape: Hostname/File stub configs and no
// Stats, so the memo never pins parsed configurations.
func checkMemoized(t *testing.T, got, rep *core.Report) {
	t.Helper()
	data, err := EncodeReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeReport(data)
	if err != nil {
		t.Fatal(err)
	}
	gotText, gotJSON := render(t, got)
	for _, want := range []*core.Report{rep, dec} {
		wantText, wantJSON := render(t, want)
		if gotText != wantText {
			t.Fatalf("memoized text diverged:\n--- want ---\n%s\n--- got ---\n%s", wantText, gotText)
		}
		if gotJSON != wantJSON {
			t.Fatalf("memoized JSON diverged:\n--- want ---\n%s\n--- got ---\n%s", wantJSON, gotJSON)
		}
	}
	for _, c := range [][2]*ir.Config{{got.Config1, rep.Config1}, {got.Config2, rep.Config2}} {
		stub := &ir.Config{Hostname: c[1].Hostname, File: c[1].File}
		if !reflect.DeepEqual(c[0], stub) {
			t.Fatalf("memoized config is not a Hostname/File stub: %+v", c[0])
		}
	}
	if got.Stats != nil {
		t.Fatalf("memoized report keeps Stats: %+v", got.Stats)
	}
}

func entryFiles(t *testing.T, dir, sub string) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dir, storeVersion, sub))
	if err != nil {
		t.Fatalf("readdir: %v", err)
	}
	var out []string
	for _, e := range entries {
		out = append(out, filepath.Join(dir, storeVersion, sub, e.Name()))
	}
	return out
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.PutHash("sum1", "hash1", "alpha", false)
	if e, ok := s.GetHash("sum1"); !ok || e.Hash != "hash1" || e.Hostname != "alpha" {
		t.Fatalf("hash entry round trip: %+v ok=%v", e, ok)
	}
	if _, ok := s.GetHash("absent"); ok {
		t.Fatal("hit on absent hash entry")
	}

	rep := testReport(t)
	s.PutReport("h1", "h2", "fp", rep)
	got, ok := s.GetReport("h1", "h2", "fp")
	if !ok {
		t.Fatal("report miss after put")
	}
	if got.TotalDifferences() != rep.TotalDifferences() {
		t.Fatalf("difference count changed: %d vs %d",
			got.TotalDifferences(), rep.TotalDifferences())
	}
	// Key discrimination: orientation and options fingerprint matter.
	if _, ok := s.GetReport("h2", "h1", "fp"); ok {
		t.Fatal("hit on swapped orientation")
	}
	if _, ok := s.GetReport("h1", "h2", "other"); ok {
		t.Fatal("hit on different options fingerprint")
	}
	// A second store over the same directory sees the entries.
	s2, _ := OpenStore(dir)
	if _, ok := s2.GetReport("h1", "h2", "fp"); !ok {
		t.Fatal("fresh store over same dir misses")
	}
}

// TestStoreCorruption: truncated and garbled entries are misses that
// self-delete; the store never errors and never serves bad data.
func TestStoreCorruption(t *testing.T) {
	dir := t.TempDir()
	s, _ := OpenStore(dir)
	s.PutReport("h1", "h2", "fp", testReport(t))
	s.PutHash("sum1", "hash1", "alpha", false)

	corruptions := []func(path string){
		func(p string) { // truncate mid-body
			data, _ := os.ReadFile(p)
			os.WriteFile(p, data[:len(data)/2], 0o644)
		},
		func(p string) { // flip a byte in the body (checksum mismatch)
			data, _ := os.ReadFile(p)
			data[len(data)-1] ^= 0x20
			os.WriteFile(p, data, 0o644)
		},
		func(p string) { // empty file
			os.WriteFile(p, nil, 0o644)
		},
		func(p string) { // version mismatch
			data, _ := os.ReadFile(p)
			os.WriteFile(p, []byte(strings.Replace(string(data),
				"campion-cache "+storeVersion, "campion-cache v0", 1)), 0o644)
		},
	}
	for i, corrupt := range corruptions {
		s.PutReport("h1", "h2", "fp", testReport(t))
		path := entryFiles(t, dir, "reports")[0]
		corrupt(path)
		if _, ok := s.GetReport("h1", "h2", "fp"); ok {
			t.Fatalf("corruption %d: served a corrupted entry", i)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("corruption %d: bad entry not deleted", i)
		}
	}
	if got := s.Stats().Corrupt; got != uint64(len(corruptions)) {
		t.Fatalf("corrupt counter = %d, want %d", got, len(corruptions))
	}

	// Hash entries take the same treatment.
	path := entryFiles(t, dir, "hashes")[0]
	os.WriteFile(path, []byte("not a cache entry"), 0o644)
	if _, ok := s.GetHash("sum1"); ok {
		t.Fatal("served a corrupted hash entry")
	}
	// Recompute-and-overwrite works after corruption.
	s.PutHash("sum1", "hash1", "alpha", false)
	if _, ok := s.GetHash("sum1"); !ok {
		t.Fatal("recomputed entry not served")
	}
}

// TestStoreKeyEcho: an entry renamed onto another key (filename/key
// mismatch, the collision paranoia check) is rejected.
func TestStoreKeyEcho(t *testing.T) {
	dir := t.TempDir()
	s, _ := OpenStore(dir)
	s.PutReport("h1", "h2", "fp", testReport(t))
	src := entryFiles(t, dir, "reports")[0]
	dst := s.path("reports", "report", "x1", "x2", "fp")
	if err := os.Rename(src, dst); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetReport("x1", "x2", "fp"); ok {
		t.Fatal("served an entry whose embedded key disagrees with its name")
	}
}

func TestStoreEviction(t *testing.T) {
	dir := t.TempDir()
	s, _ := OpenStore(dir)
	s.SetMaxReports(2)
	rep := testReport(t)
	for i := 0; i < 5; i++ {
		s.PutReport("h1", "h2", string(rune('a'+i)), rep)
	}
	s.EvictNow()
	if n := len(entryFiles(t, dir, "reports")); n > 2 {
		t.Fatalf("%d report entries after eviction, want <= 2", n)
	}
	if s.Stats().Evictions == 0 {
		t.Fatal("evictions not counted")
	}
}

// TestStoreConcurrent: concurrent writers and readers on one directory
// (the multi-process sharing model, exercised in-process under -race).
func TestStoreConcurrent(t *testing.T) {
	dir := t.TempDir()
	rep := testReport(t)
	// One memory store shared by every goroutine: its entries alias
	// rep's difference slices, read concurrently by RespanReport.
	mem := OpenMemStore()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s, err := OpenStore(dir)
			if err != nil {
				t.Errorf("open: %v", err)
				return
			}
			for i := 0; i < 20; i++ {
				for _, st := range []*Store{s, mem} {
					st.PutReport("h1", "h2", "fp", rep)
					if got, ok := st.GetReport("h1", "h2", "fp"); ok {
						out := RespanReport(got, rep.Config1, rep.Config2)
						if out.TotalDifferences() != rep.TotalDifferences() {
							t.Errorf("goroutine %d: torn read", g)
							return
						}
					}
				}
				s.PutHash("sum", "hash", "host", false)
				s.GetHash("sum")
			}
		}(g)
	}
	wg.Wait()
	s, _ := OpenStore(dir)
	if _, ok := s.GetReport("h1", "h2", "fp"); !ok {
		t.Fatal("entry missing after concurrent writes")
	}
}

func TestOptionsFingerprint(t *testing.T) {
	base := OptionsFingerprint(core.Options{})
	if OptionsFingerprint(core.Options{Workers: 8}) != base {
		t.Fatal("execution-mode options changed the fingerprint; cached reports are mode-invariant")
	}
	if OptionsFingerprint(core.Options{ExhaustiveCommunities: true}) == base {
		t.Fatal("exhaustive-communities did not change the fingerprint")
	}
	if OptionsFingerprint(core.Options{Components: []core.Component{core.ComponentACLs}}) == base {
		t.Fatal("component restriction did not change the fingerprint")
	}
}

// TestMemStore: a directory-less store round-trips entries entirely in
// memory and never touches the filesystem.
func TestMemStore(t *testing.T) {
	s := OpenMemStore()
	s.PutHash("sum1", "hash1", "alpha", false)
	if e, ok := s.GetHash("sum1"); !ok || e.Hash != "hash1" || e.Hostname != "alpha" {
		t.Fatalf("hash entry round trip: %+v ok=%v", e, ok)
	}
	if _, ok := s.GetHash("absent"); ok {
		t.Fatal("hit on absent hash entry")
	}
	rep := testReport(t)
	s.PutReport("h1", "h2", "fp", rep)
	got, ok := s.GetReport("h1", "h2", "fp")
	if !ok {
		t.Fatal("report miss after put")
	}
	if got.TotalDifferences() != rep.TotalDifferences() {
		t.Fatalf("difference count changed: %d vs %d",
			got.TotalDifferences(), rep.TotalDifferences())
	}
	checkMemoized(t, got, rep)
	if _, ok := s.GetReport("h2", "h1", "fp"); ok {
		t.Fatal("hit on swapped orientation")
	}
	if _, ok := s.GetReport("h1", "h2", "other"); ok {
		t.Fatal("hit on different options fingerprint")
	}
	// Eviction and bounds are disk concepts; they must be no-ops here.
	s.SetMaxReports(1)
	s.EvictNow()
	if _, ok := s.GetReport("h1", "h2", "fp"); !ok {
		t.Fatal("memory entry evicted by disk bound")
	}
	st := s.Stats()
	if st.ReportHits == 0 || st.HashHits == 0 {
		t.Fatalf("hit counters not advanced: %+v", st)
	}
}

// TestStoreMemo: with the write-through memo enabled, entries written to
// (or read from) disk keep serving after the backing files are removed,
// and memo hits fire the observer like any other hit.
func TestStoreMemo(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.EnableMemo()
	var mu sync.Mutex
	hits := map[string]int{}
	s.SetObserver(func(op, kind string) {
		mu.Lock()
		hits[op+"/"+kind]++
		mu.Unlock()
	})

	rep := testReport(t)
	s.PutReport("h1", "h2", "fp", rep)
	s.PutHash("sum1", "hash1", "alpha", false)

	// A fresh memo-enabled store must pull from disk once, then memoize.
	s2, _ := OpenStore(dir)
	s2.EnableMemo()
	if got, ok := s2.GetReport("h1", "h2", "fp"); !ok {
		t.Fatal("disk miss on fresh store")
	} else {
		checkMemoized(t, got, rep)
	}

	// Remove the backing files: the original store and the warmed store
	// both keep serving from memory.
	for _, sub := range []string{"reports", "hashes"} {
		for _, p := range entryFiles(t, dir, sub) {
			os.Remove(p)
		}
	}
	if got, ok := s.GetReport("h1", "h2", "fp"); !ok {
		t.Fatal("memo miss on writer store after disk removal")
	} else {
		checkMemoized(t, got, rep)
	}
	if e, ok := s.GetHash("sum1"); !ok || e.Hash != "hash1" {
		t.Fatal("hash memo miss on writer store after disk removal")
	}
	if got, ok := s2.GetReport("h1", "h2", "fp"); !ok {
		t.Fatal("memo miss on reader store after disk removal")
	} else {
		checkMemoized(t, got, rep)
	}
	// But a third store (no memo history) sees the truth: gone.
	s3, _ := OpenStore(dir)
	if _, ok := s3.GetReport("h1", "h2", "fp"); ok {
		t.Fatal("phantom hit on fresh store after disk removal")
	}

	mu.Lock()
	defer mu.Unlock()
	if hits["hit/report"] < 1 || hits["hit/hash"] < 1 {
		t.Fatalf("observer did not see memo hits: %v", hits)
	}
}

// TestPreGuardEntriesRecomputed plants the entries a writer from before
// the `\ufffd` guard left behind — JSON that already replaced a
// non-UTF-8 route-map name and hostname with U+FFFD — both at the old
// entry versions and at the current ones. Served, the report would
// render differently from a cold diff; the store must instead treat each
// entry as corrupt, delete it and miss, so the warm run recomputes and
// renders exactly what the cold run did.
func TestPreGuardEntriesRecomputed(t *testing.T) {
	cfg := func(file, host, pref string) *ir.Config {
		return parseCisco(t, file, "hostname "+host+"\n"+
			"ip prefix-list NETS permit 10.9.0.0/16 le 24\n"+
			"route-map POL\xff permit 10\n match ip address NETS\n set local-preference "+pref+"\n"+
			"route-map POL\xff deny 20\n"+
			"router bgp 65001\n neighbor 10.0.12.2 remote-as 65002\n neighbor 10.0.12.2 route-map POL\xff in\n")
	}
	c1, c2 := cfg("r0.cfg", "r0\xe9", "100"), cfg("r2.cfg", "r2", "200")
	cold, err := core.Diff(c1, c2, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	coldText, coldJSON := render(t, cold)
	h := NewHasher()
	h1, _ := h.DeviceHash(c1)
	h2, _ := h.DeviceHash(c2)
	fp := OptionsFingerprint(core.Options{})
	sum := ContentSum([]byte("r0 raw bytes"))

	for _, version := range []int{1, payloadVersion} {
		dir := t.TempDir()
		s, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		p := payloadOf(cold)
		p.Version = version
		payload, err := json.Marshal(p) // no guard: the bad bytes become U+FFFD
		if err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(reportEntry{Hash1: h1, Hash2: h2, OptionsFP: fp, Report: payload})
		if err != nil {
			t.Fatal(err)
		}
		reportPath := s.path("reports", "report", h1, h2, fp)
		s.writeEntry(reportPath, body)
		var stale reportPayload
		if err := json.Unmarshal(payload, &stale); err != nil {
			t.Fatal(err)
		}
		if text, _ := render(t, stale.report()); text == coldText {
			t.Fatal("the planted entry renders like the cold report; the test is vacuous")
		}
		hashBody, err := json.Marshal(HashEntry{Version: version, ContentSum: sum, Hash: h1, Hostname: c1.Hostname})
		if err != nil {
			t.Fatal(err)
		}
		hashPath := s.path("hashes", "hash", sum)
		s.writeEntry(hashPath, hashBody)

		// The warm run's lookups, as DiffBatch and DiffFleet make them.
		warm := cold
		if rep, ok := s.GetReport(h1, h2, fp); ok {
			warm = RespanReport(rep, c1, c2)
		} else if warm, err = core.Diff(c1, c2, core.Options{}); err != nil {
			t.Fatal(err)
		}
		if text, js := render(t, warm); text != coldText || js != coldJSON {
			t.Errorf("version %d: warm report differs from cold:\n%s\nvs\n%s", version, text, coldText)
		}
		if _, ok := s.GetHash(sum); ok {
			t.Errorf("version %d: served a hash entry whose hostname JSON changed", version)
		}
		if st := s.Stats(); st.Corrupt != 2 || st.ReportHits != 0 || st.HashHits != 0 {
			t.Errorf("version %d: stats %+v, want both entries discarded as corrupt", version, st)
		}
		for _, path := range []string{reportPath, hashPath} {
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("version %d: pre-guard entry %s not deleted (%v)", version, filepath.Base(path), err)
			}
		}
	}
}
