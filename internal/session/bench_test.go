package session

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"

	"repro/campion"
	"repro/internal/testnets"
)

// The daemon's acceptance benchmark: after a single-device edit on a
// 200-device fleet, the incremental path (push to a warm session) must
// beat the best batch alternative (re-running DiffFleet over a warm
// disk cache) by an order of magnitude. Both benchmarks process the
// same toggling edit in steady state — every hash and report either
// path needs is already cached — so the measured gap is pure
// architecture: one parse + one memo-served audit versus a full
// cache-backed fleet pass.

const benchDevices = 200

func benchSnapshots() (map[string][]byte, []string) {
	members := testnets.Fleet(testnets.FleetParams{
		Devices: benchDevices, Templates: 4, MutationRate: 0.2, Seed: 31,
	})
	snaps := make(map[string][]byte, len(members))
	names := make([]string, 0, len(members))
	for _, m := range members {
		snaps[m.Name] = []byte(m.Text)
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return snaps, names
}

// benchSession returns a session seeded with benchSnapshots' fleet and
// audited once, along with the snapshots and sorted device names.
func benchSession(b *testing.B) (*Session, map[string][]byte, []string) {
	snaps, names := benchSnapshots()
	ctx := context.Background()
	s := New(Options{})
	for name, raw := range snaps {
		if _, err := s.Ingest(ctx, name, raw, "seed", false); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := s.Audit(ctx); err != nil {
		b.Fatal(err)
	}
	return s, snaps, names
}

// benchReportPairs is a fixed list of 64 cross-template pairs of
// benchSnapshots' fleet. Device i, the i-th name in sorted order, uses
// template i%4, and the two indices of each pair differ by 1 to 3.
func benchReportPairs(names []string) [][2]string {
	pairs := make([][2]string, 64)
	for k := range pairs {
		i := 3 * k
		pairs[k] = [2]string{names[i], names[i+1+k%3]}
	}
	return pairs
}

// BenchmarkSessionIncremental: steady-state daemon cost of one
// single-device edit (ingest + incremental audit) on a warm session.
// The device toggles between two variants whose hashes and reports are
// both already cached, so per-iteration work is the parse and re-hash
// of the edited device plus a memo-served DiffFleet.
func BenchmarkSessionIncremental(b *testing.B) {
	s, snaps, names := benchSession(b)
	ctx := context.Background()

	name := names[len(names)/2]
	varA := snaps[name]
	varB := applyEdit(varA, 0, 1)
	// Warm both variants so the timed loop measures steady state.
	for _, raw := range [][]byte{varB, varA} {
		if _, err := s.Ingest(ctx, name, raw, "push", true); err != nil {
			b.Fatal(err)
		}
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw := varA
		if i%2 == 0 {
			raw = varB
		}
		res, err := s.Ingest(ctx, name, raw, "push", true)
		if err != nil {
			b.Fatal(err)
		}
		if res.Op != "ingest" || res.Audit == nil {
			b.Fatalf("iteration %d: %+v", i, res)
		}
	}
}

// BenchmarkSessionFreshEdit: the daemon's cost for an edit it has never
// seen. Each iteration appends a new /32 static route to one device, so
// the device lands in a fresh class and its rep pairs are diffed and
// stored — the write path BenchmarkSessionIncremental's cached toggle
// never reaches.
func BenchmarkSessionFreshEdit(b *testing.B) {
	s, snaps, names := benchSession(b)
	ctx := context.Background()

	name := names[len(names)/2]
	base := snaps[name]
	repDiffs := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		route := fmt.Sprintf("ip route 10.78.%d.%d 255.255.255.255 10.0.0.254\n", i>>8&255, i&255)
		res, err := s.Ingest(ctx, name, append(base[:len(base):len(base)], route...), "push", true)
		if err != nil {
			b.Fatal(err)
		}
		if res.Op != "ingest" || res.Audit == nil || res.Audit.RepComputed == 0 {
			b.Fatalf("iteration %d re-diffed no representative pair: %+v", i, res)
		}
		repDiffs += res.Audit.RepComputed
	}
	b.ReportMetric(float64(repDiffs)/float64(b.N), "repdiffs/op")
}

// BenchmarkSessionReport: the daemon's cost of one read, GET
// /report/{a}/{b} through Server.Handler, on a seeded session. It cycles
// over benchReportPairs, so every read renders a cross-template report
// with differences in it; body-B/op is the mean response body size.
func BenchmarkSessionReport(b *testing.B) {
	s, _, names := benchSession(b)
	h := (&Server{Session: s}).Handler()
	pairs := benchReportPairs(names)
	body := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/report/"+p[0]+"/"+p[1], nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("GET /report/%s/%s = %d: %s", p[0], p[1], rec.Code, rec.Body.Bytes())
		}
		body += rec.Body.Len()
	}
	b.ReportMetric(float64(body)/float64(b.N), "body-B/op")
}

// BenchmarkSessionColdWarmCache: the batch alternative to the daemon —
// after the same single-device edit, re-run `campion -all -cache-dir`
// from scratch. The disk cache is fully warm for both variants, so no
// pair is re-diffed; the cost is opening a fresh store and pulling 200
// hash entries plus every representative report back off disk.
func BenchmarkSessionColdWarmCache(b *testing.B) {
	snaps, names := benchSnapshots()
	ctx := context.Background()
	dir := b.TempDir()

	name := names[len(names)/2]
	varA := snaps[name]
	varB := applyEdit(varA, 0, 1)

	devices := func(edited []byte) []campion.FleetDevice {
		out := make([]campion.FleetDevice, len(names))
		for i, n := range names {
			raw := snaps[n]
			if n == name {
				raw = edited
			}
			text, fname := string(raw), n
			out[i] = campion.FleetDevice{
				Name:       n,
				ContentSum: campion.ContentSum(raw),
				Load:       func() (*campion.Config, error) { return campion.Parse(fname, text) },
			}
		}
		return out
	}
	// Warm the disk cache for both variants.
	for _, raw := range [][]byte{varA, varB} {
		store, err := campion.OpenFleetStore(dir)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := campion.DiffFleet(ctx, devices(raw), campion.FleetOptions{Store: store}); err != nil {
			b.Fatal(err)
		}
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw := varA
		if i%2 == 0 {
			raw = varB
		}
		store, err := campion.OpenFleetStore(dir)
		if err != nil {
			b.Fatal(err)
		}
		fr, err := campion.DiffFleet(ctx, devices(raw), campion.FleetOptions{Store: store})
		if err != nil {
			b.Fatal(err)
		}
		// The comparison is only fair if the cache really is warm: a
		// recomputed pair here would mean we timed real diffing, not
		// the cache-backed fleet pass the daemon replaces.
		if fr.Stats.RepComputed != 0 {
			b.Fatalf("iteration %d: warm run recomputed %d rep pairs", i, fr.Stats.RepComputed)
		}
	}
}

// BenchmarkWatcherIdleSweep: the steady-state cost of one -watch poll
// over an unchanged 200-device directory — a ReadDir plus one content
// sum per file, no parse, no audit.
func BenchmarkWatcherIdleSweep(b *testing.B) {
	dir := b.TempDir()
	members := testnets.Fleet(testnets.FleetParams{
		Devices: benchDevices, Templates: 4, MutationRate: 0.2, Seed: 31,
	})
	if err := testnets.WriteFleetDir(dir, members); err != nil {
		b.Fatal(err)
	}
	s := New(Options{})
	w := &Watcher{Session: s, Dir: dir}
	ctx := context.Background()
	if changed, _ := w.Sweep(ctx, "seed"); len(changed) != benchDevices {
		b.Fatalf("seed sweep ingested %d devices", len(changed))
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if changed, _ := w.Sweep(ctx, "watch"); changed != nil {
			b.Fatalf("idle sweep reported changes: %v", changed)
		}
	}
}
