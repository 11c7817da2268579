package session

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/campion"
	"repro/internal/testnets"
)

// TestWriteWorkCounts pins the rep-pair work of a daemon write on the
// shape of the perfbench fleet-daemon workload: 200 devices over four
// templates, one member of each template carrying a unique static route,
// so the fleet has four template classes and four singletons. The cold
// audit needs 50 ordered class pairs; 44 of them are the two
// orientations of 22 class pairs, so 28 passes compute all 50. A write
// gives one singleton a fresh edit: its 4 template pairs are needed both
// ways and its 3 singleton pairs one way, so 11 pairs take 7 passes.
//
// It also pins the component memo's work, per rep pair and per semantic
// component. A singleton shares both component digests with its
// template, so a static-route write recalls all 22 components of its 11
// pairs. A local-preference edit recomputes the route maps in its 4
// joint passes with the templates (8 parts); its 3 singleton pairs then
// recall those parts, since each singleton's route maps are its
// template's, and all 11 pairs recall their ACLs (14). The splits are
// exact only on one batch worker: two workers may both miss one key.
func TestWriteWorkCounts(t *testing.T) {
	members := testnets.Fleet(testnets.FleetParams{Devices: 200, Templates: 4, Seed: 5})
	route := func(block, n int) string {
		return fmt.Sprintf("ip route 198.%d.%d.0 255.255.255.0 10.0.0.254\n", block, n)
	}
	singles := []int{101, 102, 103, 104} // templates 1, 2, 3, 0
	ctx := context.Background()
	s := New(Options{Diff: campion.BatchOptions{BatchWorkers: 1}})
	for i, m := range members {
		text := m.Text
		for k, d := range singles {
			if i == d {
				text += route(17, k)
			}
		}
		if _, err := s.Ingest(ctx, m.Name, []byte(text), "seed", false); err != nil {
			t.Fatal(err)
		}
	}
	cold, err := s.Audit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Classes != 8 || cold.RepPairs != 50 || cold.RepComputed != 50 || cold.RepMirrored != 22 ||
		cold.ComponentsRecalled != 60 || cold.ComponentsComputed != 40 {
		t.Fatalf("cold audit %+v, want 8 classes, 50 rep pairs computed, 22 mirrored, 60 components recalled, 40 computed", cold)
	}
	write := func(w int, text string) AuditStats {
		t.Helper()
		res, err := s.Ingest(ctx, members[singles[w%4]].Name, []byte(text), "push", true)
		if err != nil {
			t.Fatal(err)
		}
		if a := res.Audit; a == nil || a.Classes != 8 || a.RepPairs != 50 || a.RepComputed != 11 || a.RepMirrored != 4 {
			t.Fatalf("write %d: audit %+v, want 8 classes, 50 rep pairs, 11 computed, 4 mirrored", w, res.Audit)
		}
		return *res.Audit
	}
	for w := 0; w < 6; w++ {
		if a := write(w, members[singles[w%4]].Text+route(18, w)); a.ComponentsRecalled != 22 || a.ComponentsComputed != 0 {
			t.Fatalf("static-route write %d: %d components recalled, %d computed; want 22 and 0",
				w, a.ComponentsRecalled, a.ComponentsComputed)
		}
	}
	text := strings.Replace(members[singles[2]].Text, "set local-preference", "set local-preference 9", 1)
	if a := write(2, text); a.ComponentsRecalled != 14 || a.ComponentsComputed != 8 {
		t.Fatalf("local-preference write: %d components recalled, %d computed; want 14 and 8",
			a.ComponentsRecalled, a.ComponentsComputed)
	}
}
