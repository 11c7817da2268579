package session

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/campion"
	"repro/internal/obs"
	"repro/internal/testnets"
)

// fleetSnapshots generates a small deterministic fleet as raw snapshots.
func fleetSnapshots(n int, seed int64) map[string][]byte {
	members := testnets.Fleet(testnets.FleetParams{
		Devices: n, Templates: 4, MutationRate: 0.2, Seed: seed,
	})
	out := make(map[string][]byte, len(members))
	for _, m := range members {
		out[m.Name] = []byte(m.Text)
	}
	return out
}

// coldResult runs a from-scratch DiffFleet — no cache, no session —
// over the snapshot set: the ground truth the incremental state must
// match byte for byte.
func coldResult(t *testing.T, snaps map[string][]byte) *campion.FleetResult {
	t.Helper()
	names := make([]string, 0, len(snaps))
	for n := range snaps {
		names = append(names, n)
	}
	sort.Strings(names)
	devices := make([]campion.FleetDevice, len(names))
	for i, n := range names {
		text := string(snaps[n])
		name := n
		devices[i] = campion.FleetDevice{
			Name: n,
			Load: func() (*campion.Config, error) { return campion.Parse(name, text) },
		}
	}
	fr, err := campion.DiffFleet(context.Background(), devices, campion.FleetOptions{})
	if err != nil {
		t.Fatalf("cold DiffFleet: %v", err)
	}
	return fr
}

// renderAll serializes every expanded pair of a fleet result — name,
// then the full report text or the error — so two results can be
// compared byte for byte.
func renderAll(t *testing.T, fr *campion.FleetResult) []byte {
	t.Helper()
	var b bytes.Buffer
	fr.Each(func(res campion.BatchResult) bool {
		fmt.Fprintf(&b, "=== %s ===\n", res.Name)
		if res.Err != nil {
			fmt.Fprintf(&b, "error: %v\n", res.Err)
			return true
		}
		if err := campion.Write(&b, res.Report); err != nil {
			t.Fatalf("render %s: %v", res.Name, err)
		}
		return true
	})
	return b.Bytes()
}

// sessionResult grabs the session's published audit state.
func sessionResult(t *testing.T, s *Session) *campion.FleetResult {
	t.Helper()
	s.resultMu.RLock()
	defer s.resultMu.RUnlock()
	if s.result == nil {
		t.Fatal("session has no audit result")
	}
	return s.result
}

func seedSession(t *testing.T, s *Session, snaps map[string][]byte) {
	t.Helper()
	ctx := context.Background()
	for name, raw := range snaps {
		if _, err := s.Ingest(ctx, name, raw, "seed", false); err != nil {
			t.Fatalf("ingest %s: %v", name, err)
		}
	}
	if _, err := s.Audit(ctx); err != nil {
		t.Fatalf("seed audit: %v", err)
	}
}

// edits is a deterministic menu of single-device semantic edits.
func applyEdit(raw []byte, kind int, salt int) []byte {
	text := string(raw)
	switch kind % 3 {
	case 0: // append a unique static route (new semantic class)
		return []byte(text + fmt.Sprintf("ip route 10.77.%d.0 255.255.255.0 10.0.0.254\n", salt%256))
	case 1: // change a local-preference value in place
		return []byte(strings.Replace(text, "set local-preference", "set local-preference 9", 1))
	default: // rewrite a community value
		return []byte(strings.Replace(text, "set community 65000:", "set community 64999:", 1))
	}
}

// TestIncrementalMatchesCold is the correctness pin of the tentpole:
// after any sequence of random single-device edits, the daemon's state
// (device hashes and every expanded pair report) is byte-identical to a
// cold DiffFleet over the same snapshot set.
func TestIncrementalMatchesCold(t *testing.T) {
	snaps := fleetSnapshots(14, 7)
	// One device names a route-map (and references it) with a byte that
	// is not valid UTF-8: reports the store serves on later audits must
	// render it exactly as the first audit's fresh diffs did.
	snaps["fleet-0000"] = bytes.ReplaceAll(snaps["fleet-0000"], []byte("CUSTOMER-IN"), []byte("CUSTOMER\xff-IN"))
	s := New(Options{})
	seedSession(t, s, snaps)

	names := make([]string, 0, len(snaps))
	for n := range snaps {
		names = append(names, n)
	}
	sort.Strings(names)
	rng := rand.New(rand.NewSource(11))
	ctx := context.Background()

	check := func(step string) {
		got := sessionResult(t, s)
		want := coldResult(t, snaps)
		for i := range want.Devices {
			if got.Devices[i].Hash != want.Devices[i].Hash {
				t.Fatalf("%s: hash mismatch on %s: session %s vs cold %s", step,
					want.Devices[i].Name, got.Devices[i].Hash, want.Devices[i].Hash)
			}
		}
		if g, w := renderAll(t, got), renderAll(t, want); !bytes.Equal(g, w) {
			t.Fatalf("%s: expanded reports differ from cold DiffFleet (%d vs %d bytes)",
				step, len(g), len(w))
		}
	}
	check("seed")

	for step := 0; step < 6; step++ {
		name := names[rng.Intn(len(names))]
		snaps[name] = applyEdit(snaps[name], rng.Intn(3), step)
		res, err := s.Ingest(ctx, name, snaps[name], "push", true)
		if err != nil {
			t.Fatalf("step %d: ingest %s: %v", step, name, err)
		}
		if res.Op != "ingest" {
			t.Fatalf("step %d: op %q, want ingest", step, res.Op)
		}
		if res.Audit == nil {
			t.Fatalf("step %d: no audit ran", step)
		}
		check(fmt.Sprintf("step %d (%s)", step, name))
	}
}

// TestIncrementalRehashOnlyEdited pins the cost shape: a single-device
// edit re-hashes exactly that device (every other hash is a cache hit)
// and re-diffs only class pairs the edit moved.
func TestIncrementalRehashOnlyEdited(t *testing.T) {
	snaps := fleetSnapshots(12, 3)
	journal := obs.NewJournal(nil)
	var hashKinds map[string][]string
	var mu sync.Mutex // hash events arrive from concurrent device workers
	journal.Listen(func(e obs.Event) {
		if e.Type == obs.EvHash {
			mu.Lock()
			hashKinds[e.Kind] = append(hashKinds[e.Kind], e.Device)
			mu.Unlock()
		}
	})
	hashKinds = map[string][]string{}
	s := New(Options{Journal: journal})
	seedSession(t, s, snaps)

	hashKinds = map[string][]string{}
	edited := "fleet-0003"
	snaps[edited] = applyEdit(snaps[edited], 0, 42)
	res, err := s.Ingest(context.Background(), edited, snaps[edited], "push", true)
	if err != nil {
		t.Fatal(err)
	}
	if got := hashKinds["dag"]; len(got) != 1 || got[0] != edited {
		t.Fatalf("re-hashed devices = %v, want exactly [%s]", got, edited)
	}
	if len(hashKinds["cached"]) != len(snaps)-1 {
		t.Fatalf("%d cached hashes, want %d", len(hashKinds["cached"]), len(snaps)-1)
	}
	// The edit created a fresh class: only its orientation pairs are
	// recomputed, everything else is served from the report cache.
	if res.Audit.RepComputed == 0 || res.Audit.RepComputed >= res.Audit.RepPairs {
		t.Fatalf("rep pairs computed/needed = %d/%d, want 0 < computed < needed",
			res.Audit.RepComputed, res.Audit.RepPairs)
	}
}

// TestNoopEditZeroRediff: an edit that only touches comments (appended
// trailing "!" lines, so no span shifts) changes the bytes but not the
// semantic hash — the audit must re-diff nothing.
func TestNoopEditZeroRediff(t *testing.T) {
	snaps := fleetSnapshots(10, 5)
	s := New(Options{})
	seedSession(t, s, snaps)

	edited := "fleet-0001"
	snaps[edited] = append(append([]byte(nil), snaps[edited]...),
		[]byte("! reviewed 2026-08-08\n! ticket NET-1234\n")...)
	res, err := s.Ingest(context.Background(), edited, snaps[edited], "push", true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Op != "ingest" {
		t.Fatalf("op %q, want ingest (bytes did change)", res.Op)
	}
	if res.Audit == nil {
		t.Fatal("no audit ran")
	}
	if res.Audit.RepComputed != 0 {
		t.Fatalf("comment-only edit re-diffed %d representative pairs, want 0",
			res.Audit.RepComputed)
	}
	// And byte-identical snapshots are not even ingested.
	res, err = s.Ingest(context.Background(), edited, snaps[edited], "push", true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Op != "noop" || res.Audit != nil {
		t.Fatalf("identical snapshot: op=%q audit=%v, want noop with no audit", res.Op, res.Audit)
	}
}

// TestParseFailureDegradesAndHeals: a snapshot that fails to parse is
// recorded (its pairs expand to parse errors, matching cold DiffFleet)
// and a later good snapshot restores it.
func TestParseFailureDegradesAndHeals(t *testing.T) {
	snaps := fleetSnapshots(6, 9)
	s := New(Options{})
	seedSession(t, s, snaps)
	ctx := context.Background()

	good := append([]byte(nil), snaps["fleet-0002"]...)
	snaps["fleet-0002"] = []byte("%% not a router config %%\n")
	res, err := s.Ingest(ctx, "fleet-0002", snaps["fleet-0002"], "push", true)
	if err != nil {
		t.Fatal(err)
	}
	if res.ParseError == "" {
		t.Fatal("expected a parse error")
	}
	pair, err := s.Report("fleet-0002", "fleet-0003")
	if err != nil {
		t.Fatal(err)
	}
	if pair.Err == nil || campion.ErrKind(pair.Err) != "parse" {
		t.Fatalf("pair error = %v, want a parse failure", pair.Err)
	}
	if g, w := renderAll(t, sessionResult(t, s)), renderAll(t, coldResult(t, snaps)); !bytes.Equal(g, w) {
		t.Fatal("degraded state differs from cold DiffFleet")
	}

	snaps["fleet-0002"] = good
	if _, err := s.Ingest(ctx, "fleet-0002", good, "push", true); err != nil {
		t.Fatal(err)
	}
	pair, err = s.Report("fleet-0002", "fleet-0003")
	if err != nil {
		t.Fatal(err)
	}
	if pair.Err != nil {
		t.Fatalf("healed pair still fails: %v", pair.Err)
	}
}

// TestRemoveAndQueries covers Remove, Report orientation, and the
// sentinel errors the HTTP layer depends on.
func TestRemoveAndQueries(t *testing.T) {
	snaps := fleetSnapshots(5, 13)
	s := New(Options{})
	ctx := context.Background()

	if _, err := s.Report("a", "b"); err != ErrNoAudit {
		t.Fatalf("empty session Report error = %v, want ErrNoAudit", err)
	}
	if _, err := s.Fleet(); err != ErrNoAudit {
		t.Fatalf("empty session Fleet error = %v, want ErrNoAudit", err)
	}
	if _, err := s.Ingest(ctx, "bad name", []byte("x"), "push", true); err == nil {
		t.Fatal("space in device name accepted")
	}

	seedSession(t, s, snaps)
	ab, err := s.Report("fleet-0000", "fleet-0001")
	if err != nil {
		t.Fatal(err)
	}
	ba, err := s.Report("fleet-0001", "fleet-0000")
	if err != nil {
		t.Fatal(err)
	}
	if ab.Name != ba.Name {
		t.Fatalf("orientation not canonical: %q vs %q", ab.Name, ba.Name)
	}
	if _, err := s.Report("fleet-0000", "nope"); err == nil {
		t.Fatal("unknown device accepted")
	}

	res, err := s.Remove(ctx, "fleet-0004", true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Op != "remove" || res.Audit == nil {
		t.Fatalf("remove result %+v", res)
	}
	if _, err := s.Report("fleet-0004", "fleet-0000"); err == nil {
		t.Fatal("removed device still reported")
	}
	sum, err := s.Fleet()
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Devices) != 4 {
		t.Fatalf("%d devices after remove, want 4", len(sum.Devices))
	}
	delete(snaps, "fleet-0004")
	if g, w := renderAll(t, sessionResult(t, s)), renderAll(t, coldResult(t, snaps)); !bytes.Equal(g, w) {
		t.Fatal("post-remove state differs from cold DiffFleet")
	}
}

// TestDiskBackedSessionSurvivesRestart: a session over a disk store can
// be torn down and rebuilt; the second session's seed audit re-diffs
// nothing because hashes and reports persist.
func TestDiskBackedSessionSurvivesRestart(t *testing.T) {
	snaps := fleetSnapshots(8, 21)
	dir := t.TempDir()
	store, err := campion.OpenFleetStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{Store: store})
	seedSession(t, s, snaps)
	first := s.LastAudit()
	if first.RepComputed == 0 {
		t.Fatal("cold seed computed nothing; fleet too uniform for the test")
	}

	store2, err := campion.OpenFleetStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(Options{Store: store2})
	seedSession(t, s2, snaps)
	if warm := s2.LastAudit(); warm.RepComputed != 0 {
		t.Fatalf("restarted session re-diffed %d rep pairs, want 0 (persisted cache)", warm.RepComputed)
	}
	if g, w := renderAll(t, sessionResult(t, s2)), renderAll(t, coldResult(t, snaps)); !bytes.Equal(g, w) {
		t.Fatal("restarted session state differs from cold DiffFleet")
	}
}
