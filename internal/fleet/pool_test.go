package fleet_test

import (
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/campion"
	"repro/internal/fleet"
	"repro/internal/ir"
	"repro/internal/testnets"
)

// goldenConfigs loads every configuration of the golden corpus.
func goldenConfigs(t *testing.T) []*campion.Config {
	t.Helper()
	paths, err := filepath.Glob("../campiontest/golden/*/*.cfg")
	if err != nil || len(paths) < 20 {
		t.Fatalf("golden corpus: %d configurations, %v", len(paths), err)
	}
	cfgs := make([]*campion.Config, len(paths))
	for i, p := range paths {
		if cfgs[i], err = campion.LoadFile(p); err != nil {
			t.Fatal(err)
		}
	}
	return cfgs
}

// TestPooledHasherMatchesFresh: a Hasher that has already hashed other
// devices, handed back to the pool and taken out again, hashes every
// golden-corpus configuration exactly as a fresh Hasher does.
func TestPooledHasherMatchesFresh(t *testing.T) {
	cfgs := goldenConfigs(t)
	for i, cfg := range cfgs {
		h := fleet.GetHasher()
		for _, other := range cfgs[i+1:] {
			h.DeviceHash(other)
		}
		fleet.PutHasher(h)
		h = fleet.GetHasher()
		got, gotFallback := h.DeviceHash(cfg)
		fleet.PutHasher(h)
		want, wantFallback := fleet.NewHasher().DeviceHash(cfg)
		if got != want || gotFallback != wantFallback {
			t.Errorf("%s: pooled hash %s (fallback %t), fresh %s (fallback %t)",
				cfg.File, got, gotFallback, want, wantFallback)
		}
	}
}

// TestHasherKeepsNoConfig: once a device is hashed, the Hasher holds
// nothing of it, so a pooled Hasher cannot pin an earlier audit's
// configurations. The encodings' memo tables key on the lists and ACL
// lines of a configuration, so those are what must become unreachable.
func TestHasherKeepsNoConfig(t *testing.T) {
	h := fleet.NewHasher()
	var collected atomic.Int32
	func() {
		m := testnets.Fleet(testnets.FleetParams{Devices: 1, Templates: 1, Seed: 1})[0]
		cfg, err := campion.Parse(m.Name, m.Text)
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(cfg.PrefixLists["CUST-NETS"], func(*ir.PrefixList) { collected.Add(1) })
		runtime.SetFinalizer(cfg.ACLs["EDGE"].Lines[0], func(*ir.ACLLine) { collected.Add(1) })
		h.DeviceHash(cfg)
	}()
	for i := 0; i < 100 && collected.Load() < 2; i++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	runtime.KeepAlive(h)
	if n := collected.Load(); n < 2 {
		t.Fatalf("%d of the hashed prefix list and ACL line were collected; the Hasher keeps the rest alive", n)
	}
}
