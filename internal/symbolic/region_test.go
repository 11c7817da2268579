package symbolic

import (
	"strings"
	"testing"

	"repro/internal/aclgen"
	"repro/internal/bdd"
	"repro/internal/cisco"
	"repro/internal/ir"
	"repro/internal/juniper"
	"repro/internal/policygen"
)

// TestStripeRegions: for every stripe count the regions are contiguous,
// pairwise disjoint, and cover all 32 window values exactly.
func TestStripeRegions(t *testing.T) {
	for n := -1; n <= 40; n++ {
		regions := StripeRegions(n)
		want := n
		if want < 1 {
			want = 1
		}
		if want > 32 {
			want = 32
		}
		if len(regions) != want {
			t.Fatalf("n=%d: %d regions", n, len(regions))
		}
		var covered [32]int
		prev := -1
		for _, r := range regions {
			lo, hi := int(r[0]), int(r[1])
			if lo != prev+1 || hi < lo || hi > 31 {
				t.Fatalf("n=%d: bad region [%d,%d] after %d", n, lo, hi, prev)
			}
			for v := lo; v <= hi; v++ {
				covered[v]++
			}
			prev = hi
		}
		if prev != 31 {
			t.Fatalf("n=%d: coverage stops at %d", n, prev)
		}
		for v, c := range covered {
			if c != 1 {
				t.Fatalf("n=%d: value %d covered %d times", n, v, c)
			}
		}
	}
}

func TestWindowRunMask(t *testing.T) {
	if m := windowRunMask(0, 31); m != ^uint32(0) {
		t.Fatalf("full run = %08x", m)
	}
	if m := windowRunMask(3, 3); m != 1<<3 {
		t.Fatalf("singleton = %08x", m)
	}
	if m := windowRunMask(4, 7); m != 0xf0 {
		t.Fatalf("[4,7] = %08x", m)
	}
}

func genPolicyPair(t *testing.T, seed uint64, clauses int) (*ir.Config, *ir.Config, *ir.RouteMap, *ir.RouteMap) {
	t.Helper()
	pair := policygen.Generate(policygen.Params{Seed: seed, Clauses: clauses, Differences: 3})
	c, err := cisco.Parse("c.cfg", pair.CiscoText)
	if err != nil {
		t.Fatal(err)
	}
	j, err := juniper.Parse("j.cfg", pair.JuniperText)
	if err != nil {
		t.Fatal(err)
	}
	return c, j, c.RouteMaps[pair.PolicyName], j.RouteMaps[pair.PolicyName]
}

// takenKey identifies a path by the clause positions it takes.
func takenKey(rm *ir.RouteMap, p RoutePath) string {
	idx := map[*ir.RouteMapClause]int{}
	for i, cl := range rm.Clauses {
		idx[cl] = i
	}
	var b strings.Builder
	for _, cl := range p.Taken {
		b.WriteByte(byte(idx[cl]))
	}
	return b.String()
}

// TestEnumeratePathsRegionUnion: for several stripe counts, the union of
// each class's per-region guards equals the unrestricted class guard —
// the exactness invariant the striped merge relies on — and no region
// invents a class the full walk doesn't have.
func TestEnumeratePathsRegionUnion(t *testing.T) {
	for _, seed := range []uint64{1, 9, 42} {
		c, j, rm1, _ := genPolicyPair(t, seed, 8)
		e := NewRouteEncoding(c, j)
		full, err := e.EnumeratePaths(c, rm1)
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]bdd.Node{}
		for _, p := range full {
			want[takenKey(rm1, p)] = p.Guard
		}
		for _, stripes := range []int{2, 5, 32} {
			got := map[string]bdd.Node{}
			for _, r := range StripeRegions(stripes) {
				region := e.RegionBDD(r[0], r[1])
				rsig := RegionSig(r[0], r[1])
				paths, err := e.EnumeratePathsRegion(c, rm1, region, rsig)
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range paths {
					k := takenKey(rm1, p)
					if _, ok := want[k]; !ok {
						t.Fatalf("seed %d stripes %d: region invented class %q", seed, stripes, k)
					}
					got[k] = e.F.Or(got[k], p.Guard)
				}
			}
			for k, g := range want {
				if got[k] != g {
					t.Fatalf("seed %d stripes %d: class %q union != full guard", seed, stripes, k)
				}
			}
			for k := range got {
				if _, ok := want[k]; !ok {
					t.Fatalf("seed %d stripes %d: extra class %q", seed, stripes, k)
				}
			}
		}
	}
}

// TestACLRegionUnion: AcceptSetRegion and EnumerateACLPathsRegion union
// back to their unrestricted forms over any region partition.
func TestACLRegionUnion(t *testing.T) {
	for _, seed := range []uint64{1, 5} {
		pair := aclgen.Generate(aclgen.Params{Seed: seed, Rules: 40, Differences: 4})
		for _, acl := range []*ir.ACL{pair.Cisco, pair.Juniper} {
			e := NewPacketEncoding()
			sigs := NewACLSigTable(pair.Cisco, pair.Juniper)
			w := sigs.SrcWindow()
			fullAccept := e.AcceptSet(acl)
			fullPaths := e.EnumerateACLPaths(acl)
			wantGuard := map[*ir.ACLLine]bdd.Node{}
			for _, p := range fullPaths {
				wantGuard[p.Line] = p.Guard
			}
			for _, stripes := range []int{3, 32} {
				accept := bdd.False
				gotGuard := map[*ir.ACLLine]bdd.Node{}
				for _, r := range StripeRegions(stripes) {
					region := e.SrcRegionBDD(w, r[0], r[1])
					rsig := RegionSig(r[0], r[1])
					accept = e.F.Or(accept, e.AcceptSetRegion(acl, region, rsig, sigs))
					for _, p := range e.EnumerateACLPathsRegion(acl, region, rsig, sigs) {
						if _, ok := wantGuard[p.Line]; !ok {
							t.Fatalf("seed %d stripes %d: region invented class", seed, stripes)
						}
						gotGuard[p.Line] = e.F.Or(gotGuard[p.Line], p.Guard)
					}
				}
				if accept != fullAccept {
					t.Fatalf("seed %d stripes %d: accept-set union differs", seed, stripes)
				}
				for l, g := range wantGuard {
					if gotGuard[l] != g {
						t.Fatalf("seed %d stripes %d: class guard union differs", seed, stripes)
					}
				}
			}
		}
	}
}
