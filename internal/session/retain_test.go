package session

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/campion"
	"repro/internal/fleet"
	"repro/internal/testnets"
)

// daemonTemplates is the template count of daemonFleet. The fleet-daemon
// workload has four; two keep these tests to a few seconds under -race.
const daemonTemplates = 2

// daemonWrite is the rep pairs a fresh singleton write computes: its
// template pairs both ways, and one way against each other singleton.
const daemonWrite = 3*daemonTemplates - 1

// daemonFleet seeds a session with the fleet-daemon workload's shape at
// n devices: daemonTemplates templates, one member of each carrying a
// unique static route, so each template has a class and a singleton. It
// returns the session, the current snapshots and the singletons' names
// and template snapshots. One batch worker keeps the work counts exact.
func daemonFleet(t *testing.T, n int) (s *Session, snaps map[string][]byte, singles []string, base map[string]string) {
	t.Helper()
	members := testnets.Fleet(testnets.FleetParams{Devices: n, Templates: daemonTemplates, Seed: 5})
	s = New(Options{Diff: campion.BatchOptions{BatchWorkers: 1}})
	snaps, base = map[string][]byte{}, map[string]string{}
	for i, m := range members {
		text := m.Text
		if i >= 5 && i < 5+daemonTemplates {
			singles = append(singles, m.Name)
			base[m.Name] = text
			text += freshRoute(17, i)
		}
		snaps[m.Name] = []byte(text)
	}
	seedSession(t, s, snaps)
	return s, snaps, singles, base
}

// freshRoute is a static route no other snapshot of the test carries.
func freshRoute(block, n int) string {
	return fmt.Sprintf("ip route 198.%d.%d.0 255.255.255.0 10.0.0.254\n", block+n/256, n%256)
}

// push ingests one snapshot, which must audit.
func push(t *testing.T, s *Session, snaps map[string][]byte, name string, text string) AuditStats {
	t.Helper()
	snaps[name] = []byte(text)
	res, err := s.Ingest(context.Background(), name, snaps[name], "push", true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Audit == nil || res.Audit.Failed != 0 {
		t.Fatalf("push %s: %+v", name, res)
	}
	return *res.Audit
}

// TestMemoBoundedByLiveFleet gives the fleet-daemon shape 300 fresh
// edits. After every audit the memo holds no more than the live class
// pairs, the live snapshots, the window's dead classes and snapshots,
// and the component parts of the cold audit (a static route changes no
// component digest). Once the window is full the count is exact and
// constant, and the live heap stops growing.
func TestMemoBoundedByLiveFleet(t *testing.T) {
	s, snaps, singles, base := daemonFleet(t, 16)
	// The cold audit memoizes its reports, one hash entry per device and
	// its component parts: at most one per computed component, fewer where
	// both orientations of a pair share one key.
	cold := s.LastAudit()
	parts := cold.MemoEntries - cold.RepPairs - cold.Devices
	if cold.MemoDropped != 0 || parts <= 0 || parts > cold.ComponentsComputed {
		t.Fatalf("cold audit %+v: want %d reports, %d hash entries and up to %d parts memoized, none dropped",
			cold, cold.RepPairs, cold.Devices, cold.ComponentsComputed)
	}
	const w = fleet.RetainWindow
	k := cold.Classes + w
	bound := k*(k-1) + cold.Devices + w + parts
	var steady int
	var heap30 float64
	for e := 1; e <= 300; e++ {
		name := singles[e%len(singles)]
		a := push(t, s, snaps, name, base[name]+freshRoute(18, e))
		if a.RepComputed != daemonWrite || a.ComponentsComputed != 0 {
			t.Fatalf("edit %d: audit %+v, want %d rep pairs computed and no component", e, a, daemonWrite)
		}
		if a.MemoEntries > bound {
			t.Fatalf("edit %d: %d memo entries, more than the %d the live fleet and the window need", e, a.MemoEntries, bound)
		}
		switch {
		case e == 8:
			steady = a.MemoEntries
		case e > 8 && (a.MemoEntries != steady || a.MemoDropped == 0):
			t.Fatalf("edit %d: %d memo entries kept, %d dropped; want %d kept and some dropped", e, a.MemoEntries, a.MemoDropped, steady)
		}
		if e%30 == 0 {
			// Checked as it goes, so an unbounded memo fails early.
			heap := liveHeapMB()
			if e == 30 {
				heap30 = heap
			} else if heap > heap30+16 {
				t.Fatalf("live heap %.1f MB after %d edits, %.1f MB after 30", heap, e, heap30)
			}
		}
	}
}

// TestToggleServedFromWindow flips one singleton between two variants.
// While the other variant is in the window, a flip recomputes nothing,
// re-hashes nothing and digests nothing. A fresh edit digests only the
// edited snapshot. A return after the window has passed recomputes, and
// renders exactly what a cold DiffFleet renders.
func TestToggleServedFromWindow(t *testing.T) {
	s, snaps, singles, base := daemonFleet(t, 16)
	name := singles[0]
	varA, varB := string(snaps[name]), base[name]+freshRoute(18, 0)
	pushCounting := func(text string) (AuditStats, fleet.StoreStats) {
		t.Helper()
		before := s.store.Stats()
		a := push(t, s, snaps, name, text)
		after := s.store.Stats()
		return a, fleet.StoreStats{HashMisses: after.HashMisses - before.HashMisses, Digests: after.Digests - before.Digests}
	}
	fresh := func(what, text string) {
		t.Helper()
		if a, d := pushCounting(text); a.RepComputed != daemonWrite || d.HashMisses != 1 || d.Digests != 1 {
			t.Fatalf("%s: %d rep pairs computed, %d hash misses, %d digests; want %d, 1 and 1",
				what, a.RepComputed, d.HashMisses, d.Digests, daemonWrite)
		}
	}
	fresh("first visit of variant B", varB)
	for i, text := range []string{varA, varB, varA, varB, varA} {
		if a, d := pushCounting(text); a.RepComputed != 0 || d.HashMisses != 0 || d.Digests != 0 {
			t.Fatalf("toggle %d: %d rep pairs computed, %d hash misses, %d digests; want none",
				i, a.RepComputed, d.HashMisses, d.Digests)
		}
	}
	for i := 1; i <= fleet.RetainWindow+1; i++ {
		fresh(fmt.Sprintf("fresh edit %d", i), base[name]+freshRoute(18, i))
	}
	fresh("return to variant A after the window", varA)
	if got, want := renderAll(t, sessionResult(t, s)), renderAll(t, coldResult(t, snaps)); !bytes.Equal(got, want) {
		t.Fatal("after the return, the session renders differently from a cold DiffFleet")
	}
}

// TestRemoveAllLeavesWindow removes every device without asking for an
// audit. Removing the last one still audits the empty fleet: the memo
// keeps only what the window's dead classes and snapshots need, and the
// published state is gone. The removal reports no audit stats.
func TestRemoveAllLeavesWindow(t *testing.T) {
	snaps := fleetSnapshots(6, 13)
	s := New(Options{})
	seedSession(t, s, snaps)
	ctx := context.Background()
	for name := range snaps {
		res, err := s.Remove(ctx, name, false)
		if err != nil {
			t.Fatal(err)
		}
		if res.Audit != nil {
			t.Fatalf("removing %s reported audit %+v, want none", name, *res.Audit)
		}
	}
	if a := s.LastAudit(); a != (AuditStats{}) {
		t.Fatalf("LastAudit() = %+v after removing every device, want zero", a)
	}
	if _, err := s.Fleet(); err != ErrNoAudit {
		t.Fatalf("Fleet() error = %v, want ErrNoAudit", err)
	}
	// Retaining the empty fleet again is a no-op that counts the memo.
	kept, dropped := s.store.Retain(nil, nil)
	const w = fleet.RetainWindow
	if dropped != (fleet.MemoSize{}) || kept.Reports > w*(w-1) || kept.Hashes > w || kept.Components > 2*w*w {
		t.Fatalf("empty fleet's memo: kept %+v, dropped %+v; want at most the window's %d classes and snapshots", kept, dropped, w)
	}
}
