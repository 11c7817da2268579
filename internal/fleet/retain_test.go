package fleet

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
)

// retainDevice is one snapshot of TestRetain's fleet: its content sum,
// class hash and configuration. Variant v sets its own local preference
// and ACL line, so every variant has its own component digests.
type retainDevice struct {
	sum, hash string
	cfg       *ir.Config
}

func retainDevices(t *testing.T, n int) []retainDevice {
	t.Helper()
	out := make([]retainDevice, n)
	for v := range out {
		text := strings.Replace(strings.Replace(hashBaseCfg,
			"local-preference 120", fmt.Sprintf("local-preference %d", 130+v), 1),
			"192.168.1.0", fmt.Sprintf("192.168.%d.0", 10+v), 1)
		out[v] = retainDevice{sum: ContentSum([]byte(text)), hash: fmt.Sprintf("class-%d", v),
			cfg: parseCisco(t, fmt.Sprintf("d%d.cfg", v), text)}
	}
	return out
}

// TestRetain drives a memory store through a fleet whose second device
// takes a new variant at every audit. Entries of the live fleet and of
// the RetainWindow most recently dead variants stay; older ones go, of
// every kind, and a store without a memo keeps everything.
func TestRetain(t *testing.T) {
	devs := retainDevices(t, 5)
	rep := testReport(t)
	s := OpenMemStore()
	// audit memoizes what a fleet audit of devices a and b leaves behind,
	// then retains that fleet.
	audit := func(a, b int) (kept, dropped MemoSize) {
		t.Helper()
		for _, v := range []int{a, b} {
			if _, ok := s.GetHash(devs[v].sum); !ok {
				s.PutHash(devs[v].sum, devs[v].hash, "host", false)
			}
		}
		da, db := devs[a], devs[b]
		dga, dgb := s.SnapshotDigests(da.sum, da.cfg), s.SnapshotDigests(db.sum, db.cfg)
		s.PutReport(da.hash, db.hash, "fp", rep)
		s.PutReport(db.hash, da.hash, "fp", rep)
		s.PutComponent(core.ComponentRouteMaps, "fp", dga.RouteMaps, dgb.RouteMaps, &core.Report{})
		s.PutComponent(core.ComponentACLs, "fp", dgb.ACLs, dga.ACLs, &core.Report{})
		return s.Retain([]string{da.hash, db.hash}, []string{da.sum, db.sum})
	}
	// Each audit adds two reports, a hash entry and two parts. Once the
	// window is full, the live pair and the dead variant hold two report
	// pairs, three hash entries and four parts, and each audit drops the
	// variant that leaves the window.
	want := []struct{ kept, dropped MemoSize }{
		{MemoSize{2, 2, 2}, MemoSize{}},
		{MemoSize{4, 3, 4}, MemoSize{}},
		{MemoSize{4, 3, 4}, MemoSize{2, 1, 2}},
		{MemoSize{4, 3, 4}, MemoSize{2, 1, 2}},
	}
	for b := 1; b < len(devs); b++ {
		kept, dropped := audit(0, b)
		if w := want[b-1]; kept != w.kept || dropped != w.dropped {
			t.Fatalf("audit with variant %d kept %+v, dropped %+v; want %+v and %+v", b, kept, dropped, w.kept, w.dropped)
		}
	}
	if got := s.Stats().Digests; got != uint64(len(devs)) {
		t.Fatalf("%d digest computations, want one per snapshot (%d)", got, len(devs))
	}
	// Variant 3 is in the window, variants 1 and 2 are gone.
	for v, in := range []bool{true, false, false, true, true} {
		d := devs[v]
		if _, ok := s.GetHash(d.sum); ok != in {
			t.Errorf("variant %d hash entry kept %t, want %t", v, ok, in)
		}
		if _, ok := s.GetReport(devs[0].hash, d.hash, "fp"); v > 0 && ok != in {
			t.Errorf("report against variant %d kept %t, want %t", v, ok, in)
		}
		if _, ok := s.GetComponent(core.ComponentACLs, "fp", Digests(d.cfg).ACLs, Digests(devs[0].cfg).ACLs); v > 0 && ok != in {
			t.Errorf("ACL part of variant %d kept %t, want %t", v, ok, in)
		}
	}
	// Reviving variant 3 takes it out of the window and puts variant 4
	// in, so nothing is dropped.
	if _, dropped := s.Retain([]string{devs[0].hash, devs[3].hash}, []string{devs[0].sum, devs[3].sum}); dropped != (MemoSize{}) {
		t.Fatalf("reviving variant 3 dropped %+v", dropped)
	}
	// The empty fleet kills variants 0 and 3 at once; the window keeps
	// one class and one snapshot of them, which need no report or part.
	if kept, dropped := s.Retain(nil, nil); kept != (MemoSize{0, 1, 0}) || dropped != (MemoSize{4, 2, 4}) {
		t.Fatalf("empty fleet kept %+v, dropped %+v; want one hash entry only", kept, dropped)
	}
	if kept, dropped := s.Retain(nil, nil); kept != (MemoSize{0, 1, 0}) || dropped != (MemoSize{}) {
		t.Fatalf("retaining the empty fleet again kept %+v, dropped %+v; want a no-op", kept, dropped)
	}

	disk, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	disk.PutComponent(core.ComponentACLs, "fp", "x", "y", &core.Report{})
	if kept, dropped := disk.Retain(nil, nil); kept != (MemoSize{}) || dropped != (MemoSize{}) {
		t.Fatalf("a store without a memo pruned: kept %+v, dropped %+v", kept, dropped)
	}
	if _, ok := disk.GetComponent(core.ComponentACLs, "fp", "x", "y"); !ok {
		t.Fatal("a store without a memo lost a component part")
	}
}

// TestRetainConcurrent runs Retain beside concurrent lookups and puts
// of live and dead entries: a live entry is never lost, and a dead one
// put during a sweep is gone after the next Retain.
func TestRetainConcurrent(t *testing.T) {
	rep := testReport(t)
	s := OpenMemStore()
	live := []string{"h0", "h1"}
	s.PutReport("h0", "h1", "fp", rep)
	s.PutHash("sum0", "h0", "host", false)
	s.PutComponent(core.ComponentACLs, "fp", "d0", "d0", &core.Report{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				dead := fmt.Sprintf("dead-%d-%d", g, i)
				s.PutReport("h0", dead, "fp", rep)
				s.PutHash(dead, dead, "host", false)
				s.PutComponent(core.ComponentACLs, "fp", dead, "d0", &core.Report{})
				if _, ok := s.GetReport("h0", "h1", "fp"); !ok {
					t.Error("live report lost")
					return
				}
				if _, ok := s.GetHash("sum0"); !ok {
					t.Error("live hash entry lost")
					return
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for retained := false; !retained; {
		select {
		case <-done:
			retained = true
		default:
			s.Retain(live, []string{"sum0"})
		}
	}
	// sum0 never got digests, so its part goes too.
	kept, _ := s.Retain(live, []string{"sum0"})
	if kept != (MemoSize{Reports: 1, Hashes: 1}) {
		t.Fatalf("after the writers stopped, Retain kept %+v; want the live report and hash entry", kept)
	}
}
