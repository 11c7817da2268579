package campion

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/testnets"
)

// mirroredFleet is a three-device fleet whose two classes are needed in
// both orientations: devices 0 and 2 share a template, device 1 is the
// other template, so (0's class, 1's class) and (1's class, 0's class)
// are both needed — one joint job.
func mirroredFleet(t *testing.T) []FleetDevice {
	t.Helper()
	cfgs := fleetConfigs(t, testnets.Fleet(testnets.FleetParams{Devices: 3, Templates: 2, Seed: 1}))
	devices := make([]FleetDevice, len(cfgs))
	for i, c := range cfgs {
		devices[i] = FleetDevice{Name: c.Name, Config: c.Config}
	}
	return devices
}

// TestDiffFleetMirrorsRepPairs: the mirrored orientation of a class pair
// comes from the joint pass, is counted in RepMirrored (a subset of
// RepComputed), journals one "mirror" pair event, and expands to the
// bytes of a naive all-pairs run.
func TestDiffFleetMirrorsRepPairs(t *testing.T) {
	devices := mirroredFleet(t)
	var mu sync.Mutex // hash workers emit concurrently
	var events []JournalEvent
	j := NewJournal(nil)
	j.Listen(func(e JournalEvent) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	})
	fr, err := DiffFleet(context.Background(), devices, FleetOptions{
		BatchOptions: BatchOptions{Options: Options{Journal: j}, BatchWorkers: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if fr.Stats.Classes != 2 || fr.Stats.RepPairs != 2 || fr.Stats.RepComputed != 2 || fr.Stats.RepMirrored != 1 {
		t.Fatalf("stats %+v, want 2 classes, 2 rep pairs computed, 1 mirrored", fr.Stats)
	}
	ops := map[string]int{}
	for _, e := range events {
		if e.Type == obs.EvPair {
			ops[e.Op]++
		}
	}
	if ops["mirror"] != 1 || ops[""] != 1 {
		t.Fatalf("pair event ops %v, want one plain and one mirror", ops)
	}

	cfgs := make([]NamedConfig, len(devices))
	for i, d := range devices {
		cfgs[i] = NamedConfig{Name: d.Name, Config: d.Config}
	}
	naive, err := DiffAll(context.Background(), cfgs, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for k, res := range fr.Results() {
		if got, want := renderResult(t, res), renderResult(t, naive[k]); got != want {
			t.Errorf("pair %s diverges from naive:\n%s\nvs\n%s", res.Name, got, want)
		}
	}
}

// TestDiffFleetMirrorBudgetErrors: when the joint pass of a mirrored
// pair fails on its MaxNodes budget, each orientation's error is the one
// a lone diff of that orientation returns — kind, label, cause and
// provenance — because the reverse is then diffed on its own. The
// smallest budget fails while building the encoding, the middle ones in
// a chain comparison (with each side's file:line), the last not at all.
func TestDiffFleetMirrorBudgetErrors(t *testing.T) {
	devices := mirroredFleet(t)
	for _, budget := range []int{16, 1500, 3000, 6000, 1 << 24} {
		opts := BatchOptions{Options: Options{MaxNodes: budget}, BatchWorkers: 1}
		fr, err := DiffFleet(context.Background(), devices, FleetOptions{BatchOptions: opts})
		if err != nil {
			t.Fatal(err)
		}
		for _, key := range [][2]int{{0, 1}, {1, 0}} {
			c1 := devices[fr.Classes[key[0]].Members[0]]
			c2 := devices[fr.Classes[key[1]].Members[0]]
			lone, err := DiffBatch(context.Background(), []ConfigPair{
				{Name: c1.Name + " vs " + c2.Name, Config1: c1.Config, Config2: c2.Config},
			}, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, want := fr.repErr[key], lone[0].Err
			if (got == nil) != (want == nil) {
				t.Fatalf("budget %d, %v: joint error %v, lone error %v", budget, key, got, want)
			}
			if want == nil {
				continue
			}
			var g, w *PairError
			if !errors.As(got, &g) || !errors.As(want, &w) {
				t.Fatalf("budget %d, %v: errors %T / %T, want *PairError", budget, key, got, want)
			}
			if g.Pair != w.Pair || g.Kind != w.Kind || g.File != w.File || g.Line != w.Line || g.Err.Error() != w.Err.Error() {
				t.Errorf("budget %d, %v: joint error %v, lone error %v", budget, key, got, want)
			}
		}
		if budget == 16 {
			if fr.Stats.RepMirrored != 0 || len(fr.repErr) != 2 || !errors.Is(fr.repErr[[2]int{1, 0}], ErrBudget) {
				t.Fatalf("budget %d: stats %+v, errors %v; want both orientations to fail unmirrored", budget, fr.Stats, fr.repErr)
			}
		}
	}
}
