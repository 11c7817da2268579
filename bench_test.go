// Benchmarks regenerating the paper's evaluation artifacts: one benchmark
// per table and figure (see the per-experiment index in DESIGN.md), plus
// ablations for the design choices called out there. Run with:
//
//	go test -bench=. -benchmem .
package repro_test

import (
	"context"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/campion"
	"repro/internal/aclgen"
	"repro/internal/bdd"
	"repro/internal/cisco"
	"repro/internal/core"
	"repro/internal/ddnf"
	"repro/internal/headerloc"
	"repro/internal/ir"
	"repro/internal/juniper"
	"repro/internal/minesweeper"
	"repro/internal/netaddr"
	"repro/internal/obs"
	"repro/internal/policygen"
	"repro/internal/semdiff"
	"repro/internal/srp"
	"repro/internal/symbolic"
	"repro/internal/testnets"
)

const figure1a = `hostname cisco_router
ip prefix-list NETS permit 10.9.0.0/16 le 32
ip prefix-list NETS permit 10.100.0.0/16 le 32
ip community-list standard COMM permit 10:10
ip community-list standard COMM permit 10:11
route-map POL deny 10
 match ip address NETS
route-map POL deny 20
 match community COMM
route-map POL permit 30
 set local-preference 30
`

const figure1b = `system { host-name juniper_router; }
policy-options {
    prefix-list NETS {
        10.9.0.0/16;
        10.100.0.0/16;
    }
    community COMM members [ 10:10 10:11 ];
    policy-statement POL {
        term rule1 { from prefix-list NETS; then reject; }
        term rule2 { from community COMM; then reject; }
        term rule3 { then { local-preference 30; accept; } }
    }
}
`

func mustFigure1(b *testing.B) (*ir.Config, *ir.Config) {
	b.Helper()
	c, err := cisco.Parse("c.cfg", figure1a)
	if err != nil {
		b.Fatal(err)
	}
	j, err := juniper.Parse("j.cfg", figure1b)
	if err != nil {
		b.Fatal(err)
	}
	return c, j
}

// BenchmarkFigure1RouteMapDiff regenerates Table 2: the full SemanticDiff
// + HeaderLocalize pipeline on the Figure 1 route maps.
func BenchmarkFigure1RouteMapDiff(b *testing.B) {
	c, j := mustFigure1(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := core.Diff(c, j, core.Options{Components: []core.Component{core.ComponentRouteMaps}})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.RouteMapDiffs) != 2 {
			b.Fatalf("diffs = %d", len(rep.RouteMapDiffs))
		}
	}
}

// BenchmarkRepairFigure1 measures the full repair pipeline on the
// paper's Figure 1 translation bug: initial diff, witness collection,
// candidate generation, the two-depth search (~70 candidate re-diffs),
// and oracle verification of the winner.
func BenchmarkRepairFigure1(b *testing.B) {
	c, j := mustFigure1(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := campion.Repair(context.Background(), c, j, campion.RepairOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Repaired() {
			b.Fatal("Figure 1 pair not repaired")
		}
	}
}

// BenchmarkMinesweeperFirstCounterexample regenerates Table 3: the
// monolithic baseline's single-counterexample query.
func BenchmarkMinesweeperFirstCounterexample(b *testing.B) {
	c, j := mustFigure1(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch, err := minesweeper.NewRouteMapChecker(c, c.RouteMaps["POL"], j, j.RouteMaps["POL"])
		if err != nil {
			b.Fatal(err)
		}
		if _, ok := ch.NextCounterexample(); !ok {
			b.Fatal("no counterexample")
		}
	}
}

// BenchmarkStaticStructuralDiff regenerates Table 4.
func BenchmarkStaticStructuralDiff(b *testing.B) {
	c, _ := cisco.Parse("c.cfg", "ip route 10.1.1.2 255.255.255.254 10.2.2.2\n")
	j, _ := juniper.Parse("j.cfg", "routing-options { static { } }\n")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := core.Diff(c, j, core.Options{Components: []core.Component{core.ComponentStatic}})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Structural) != 1 {
			b.Fatal("want 1 diff")
		}
	}
}

// BenchmarkMinesweeperStatic regenerates Table 5.
func BenchmarkMinesweeperStatic(b *testing.B) {
	c, _ := cisco.Parse("c.cfg", "ip route 10.1.1.2 255.255.255.254 10.2.2.2\n")
	j, _ := juniper.Parse("j.cfg", "routing-options { static { } }\n")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := minesweeper.StaticForwardingCounterexample(c, j); !ok {
			b.Fatal("no counterexample")
		}
	}
}

// BenchmarkDatacenterScenario1 regenerates Table 6 row 1 (redundant ToR
// pairs: BGP + static differences).
func BenchmarkDatacenterScenario1(b *testing.B) {
	pairs := testnets.DatacenterToRPairs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total := 0
		for _, p := range pairs {
			rep, err := core.Diff(p.Config1, p.Config2, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			total += len(rep.RouteMapDiffs)
		}
		if total != 5 {
			b.Fatalf("bgp diffs = %d", total)
		}
	}
}

// BenchmarkDatacenterScenario2 regenerates Table 6 row 2 (replacement).
func BenchmarkDatacenterScenario2(b *testing.B) {
	p := testnets.DatacenterReplacement()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := core.Diff(p.Config1, p.Config2, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.RouteMapDiffs) != 4 {
			b.Fatal("want 4 diffs")
		}
	}
}

// BenchmarkDatacenterScenario3 regenerates Table 6 row 3 and Table 7
// (gateway ACLs).
func BenchmarkDatacenterScenario3(b *testing.B) {
	p := testnets.DatacenterGateway()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := core.Diff(p.Config1, p.Config2, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.ACLDiffs) != 3 {
			b.Fatal("want 3 diffs")
		}
	}
}

// BenchmarkUniversityCore and BenchmarkUniversityBorder regenerate
// Table 8 (and the §5.4 claim that a pair compares in seconds).
func BenchmarkUniversityCore(b *testing.B) {
	p := testnets.UniversityCore()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Diff(p.Config1, p.Config2, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUniversityBorder(b *testing.B) {
	p := testnets.UniversityBorder()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Diff(p.Config1, p.Config2, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2PathEnumeration regenerates Figure 2: partitioning the
// Figure 1(a) route map into equivalence classes.
func BenchmarkFigure2PathEnumeration(b *testing.B) {
	c, j := mustFigure1(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := symbolic.NewRouteEncoding(c, j)
		paths, err := enc.EnumeratePaths(c, c.RouteMaps["POL"])
		if err != nil {
			b.Fatal(err)
		}
		if len(paths) != 3 {
			b.Fatal("want 3 classes")
		}
	}
}

// BenchmarkFigure3GetMatch regenerates Figure 3: the ddNF DAG build and
// the GetMatch traversal.
func BenchmarkFigure3GetMatch(b *testing.B) {
	rB := netaddr.MustParsePrefixRange("10.0.0.0/8 : 8-32")
	rC := netaddr.MustParsePrefixRange("20.0.0.0/8 : 8-32")
	rD := netaddr.MustParsePrefixRange("10.1.0.0/16 : 16-32")
	rE := netaddr.MustParsePrefixRange("10.2.0.0/16 : 16-32")
	rF := netaddr.MustParsePrefixRange("20.1.0.0/16 : 16-32")
	rG := netaddr.MustParsePrefixRange("20.1.1.0/24 : 24-32")
	enc := symbolic.NewRouteEncoding()
	ops := ddnf.SetOps{F: enc.F, RangeBDD: enc.PrefixRangeBDD, Universe: enc.WellFormed}
	s := enc.F.OrN(
		enc.F.Diff(enc.F.And(ops.RangeBDD(rB), ops.Universe), ops.RangeBDD(rD)),
		enc.F.Diff(enc.F.And(ops.RangeBDD(rC), ops.Universe), ops.RangeBDD(rF)),
		enc.F.And(ops.RangeBDD(rG), ops.Universe),
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := ddnf.Build([]netaddr.PrefixRange{rB, rC, rD, rE, rF, rG})
		terms, exact := d.GetMatch(ops, s)
		if !exact || len(ddnf.Simplify(terms)) != 3 {
			b.Fatal("unexpected GetMatch result")
		}
	}
}

// BenchmarkTheoremSRPSolve regenerates the Theorem 3.3 experiment: one
// whole-network SRP solve through the Figure 1 policy.
func BenchmarkTheoremSRPSolve(b *testing.B) {
	c, _ := mustFigure1(b)
	adverts := []*ir.Route{
		ir.NewRoute(netaddr.MustParsePrefix("10.9.1.0/24")),
		ir.NewRoute(netaddr.MustParsePrefix("192.0.2.0/24")),
	}
	for _, r := range adverts {
		r.ASPath = []int64{65002}
	}
	net := &srp.BGPNetwork{
		Nodes: 3,
		Sessions: []srp.BGPSession{
			{Edge: srp.Edge{From: 0, To: 1}, FromASN: 65002, ToASN: 65001,
				ImportConfig: c, Import: []string{"POL"}},
			{Edge: srp.Edge{From: 1, To: 2}, FromASN: 65001, ToASN: 65001},
		},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := net.NewBGPProblem(0, adverts).Solve(); !ok {
			b.Fatal("no convergence")
		}
	}
}

// BenchmarkMinesweeperEnumeration regenerates the §2 fragility
// measurement: counterexamples until Difference 1's ranges are covered.
func BenchmarkMinesweeperEnumeration(b *testing.B) {
	c, j := mustFigure1(b)
	targets := []func(*ir.Route) bool{
		func(r *ir.Route) bool {
			return netaddr.MustParsePrefixRange("10.9.0.0/16 : 17-32").ContainsPrefix(r.Prefix)
		},
		func(r *ir.Route) bool {
			return netaddr.MustParsePrefixRange("10.100.0.0/16 : 17-32").ContainsPrefix(r.Prefix)
		},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch, err := minesweeper.NewRouteMapChecker(c, c.RouteMaps["POL"], j, j.RouteMaps["POL"])
		if err != nil {
			b.Fatal(err)
		}
		if _, covered := ch.CountUntilCovered(targets, 2000); !covered {
			b.Fatal("not covered")
		}
	}
}

// benchACLDiff is the §5.4 scalability harness: generated
// nearly-equivalent ACL pairs with 10 injected differences.
func benchACLDiff(b *testing.B, rules int) {
	pair := aclgen.Generate(aclgen.Params{Seed: 1, Rules: rules, Differences: 10})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := symbolic.NewPacketEncoding()
		diffs := semdiff.DiffACLs(enc, pair.Cisco, pair.Juniper)
		if len(diffs) == 0 {
			b.Fatal("expected diffs")
		}
	}
}

func BenchmarkSemanticDiffACL100(b *testing.B)   { benchACLDiff(b, 100) }
func BenchmarkSemanticDiffACL1000(b *testing.B)  { benchACLDiff(b, 1000) }
func BenchmarkSemanticDiffACL10000(b *testing.B) { benchACLDiff(b, 10000) }

// BenchmarkACLParse measures the parsing side of §5.4 (the paper compares
// Batfish's 13 s parse at 10k rules against the 15 s diff).
func BenchmarkACLParse1000(b *testing.B) {
	pair := aclgen.Generate(aclgen.Params{Seed: 1, Rules: 1000, Differences: 10})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cisco.Parse("c.cfg", pair.CiscoText); err != nil {
			b.Fatal(err)
		}
		if _, err := juniper.Parse("j.cfg", pair.JuniperText); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullPairDiff measures the §5.4 end-to-end claim: a full router
// pair comparison (all components) in seconds.
func BenchmarkFullPairDiff(b *testing.B) {
	pairs := []testnets.Pair{
		testnets.UniversityCore(), testnets.UniversityBorder(),
		testnets.DatacenterReplacement(), testnets.DatacenterGateway(),
	}
	pairs = append(pairs, testnets.DatacenterToRPairs()...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pairs {
			if _, err := core.Diff(p.Config1, p.Config2, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Ablations (design choices called out in DESIGN.md) ---

// BenchmarkSemanticDiffPruning vs BenchmarkSemanticDiffNaive: the
// difference-set pruning pass against the quadratic class product.
func BenchmarkSemanticDiffPruning(b *testing.B) {
	pair := aclgen.Generate(aclgen.Params{Seed: 2, Rules: 2000, Differences: 10})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := symbolic.NewPacketEncoding()
		semdiff.DiffACLs(enc, pair.Cisco, pair.Juniper)
	}
}

func BenchmarkSemanticDiffNaive(b *testing.B) {
	pair := aclgen.Generate(aclgen.Params{Seed: 2, Rules: 2000, Differences: 10})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := symbolic.NewPacketEncoding()
		semdiff.DiffACLsNaive(enc, pair.Cisco, pair.Juniper)
	}
}

// The pruning win is largest on equal pairs: the XOR short-circuits the
// whole product.
func BenchmarkSemanticDiffPruningEqualPair(b *testing.B) {
	pair := aclgen.Generate(aclgen.Params{Seed: 2, Rules: 2000, Differences: 0})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := symbolic.NewPacketEncoding()
		if len(semdiff.DiffACLs(enc, pair.Cisco, pair.Juniper)) != 0 {
			b.Fatal("equal pair")
		}
	}
}

func BenchmarkSemanticDiffNaiveEqualPair(b *testing.B) {
	pair := aclgen.Generate(aclgen.Params{Seed: 2, Rules: 2000, Differences: 0})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := symbolic.NewPacketEncoding()
		if len(semdiff.DiffACLsNaive(enc, pair.Cisco, pair.Juniper)) != 0 {
			b.Fatal("equal pair")
		}
	}
}

// BenchmarkHeaderLocalizeDDNF vs BenchmarkHeaderLocalizeCubes: rendering
// a difference's prefix space via the ddNF DAG against raw BDD cube
// enumeration.
func BenchmarkHeaderLocalizeDDNF(b *testing.B) {
	c, j := mustFigure1(b)
	enc := symbolic.NewRouteEncoding(c, j)
	diffs, err := semdiff.DiffRouteMaps(enc, c, c.RouteMaps["POL"], j, j.RouteMaps["POL"])
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loc := headerloc.NewRouteLocalizer(enc, c, j)
		for _, d := range diffs {
			if l := loc.Localize(d.Inputs); len(l.Terms) == 0 {
				b.Fatal("no terms")
			}
		}
	}
}

func BenchmarkHeaderLocalizeCubes(b *testing.B) {
	c, j := mustFigure1(b)
	enc := symbolic.NewRouteEncoding(c, j)
	diffs, err := semdiff.DiffRouteMaps(enc, c, c.RouteMaps["POL"], j, j.RouteMaps["POL"])
	if err != nil {
		b.Fatal(err)
	}
	nonPrefix := enc.NonPrefixVars()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range diffs {
			projected := enc.F.Exists(d.Inputs, nonPrefix)
			count := 0
			enc.F.WalkCubes(projected, func(bdd.Assignment) bool {
				count++
				return count < 100000
			})
			if count == 0 {
				b.Fatal("no cubes")
			}
		}
	}
}

// BenchmarkBDDOps tracks the raw engine cost of the symbolic substrate.
func BenchmarkBDDOps(b *testing.B) {
	f := bdd.NewFactory(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := bdd.True
		for v := 0; v < 64; v += 2 {
			n = f.And(n, f.Or(f.Var(v), f.NVar(v+1)))
		}
		if n == bdd.False {
			b.Fatal("unexpected")
		}
	}
}

// BenchmarkConfigParse measures the vendor parsers on the university
// configurations.
func BenchmarkConfigParse(b *testing.B) {
	p := testnets.UniversityCore()
	_ = p
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		testnets.UniversityCore()
	}
}

// benchRouteMapDiff scales SemanticDiff on generated cross-vendor policy
// pairs (route maps are the paper's other semantic component; its
// scalability experiment covered ACLs only).
func benchRouteMapDiff(b *testing.B, clauses int) {
	pair := policygen.Generate(policygen.Params{Seed: 3, Clauses: clauses, Differences: 5})
	c, err := cisco.Parse("c.cfg", pair.CiscoText)
	if err != nil {
		b.Fatal(err)
	}
	j, err := juniper.Parse("j.cfg", pair.JuniperText)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := symbolic.NewRouteEncoding(c, j)
		if _, err := semdiff.DiffRouteMaps(enc, c, c.RouteMaps[pair.PolicyName], j, j.RouteMaps[pair.PolicyName]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSemanticDiffRouteMap20(b *testing.B)  { benchRouteMapDiff(b, 20) }
func BenchmarkSemanticDiffRouteMap100(b *testing.B) { benchRouteMapDiff(b, 100) }
func BenchmarkSemanticDiffRouteMap300(b *testing.B) { benchRouteMapDiff(b, 300) }

// BenchmarkSemanticDiffRouteMap10000 is the kernel-scale tier: 10k
// generated clauses through encoding + enumeration + pairwise diff
// (~1M nodes per iteration). Header localization is measured separately
// — its DDNF dag is the known wall at this clause count.
func BenchmarkSemanticDiffRouteMap10000(b *testing.B) { benchRouteMapDiff(b, 10000) }

// BenchmarkRouteEncodingBuild measures the fixed set-up a route-map
// worker pays per pair before compiling any clause: the route encoding
// (vocabulary atomization plus the WellFormed constraint) and the header
// localizer over it, built on one recycled factory as the worker pool
// builds them. nodes/op is the arena the set-up leaves.
func BenchmarkRouteEncodingBuild(b *testing.B) {
	fig1a, fig1b := mustFigure1(b)
	border := testnets.UniversityBorder()
	gen := policygen.Generate(policygen.Params{Seed: 11, Clauses: 6, Communities: 4, Differences: 2})
	genC, err := cisco.Parse("c.cfg", gen.CiscoText)
	if err != nil {
		b.Fatal(err)
	}
	genJ, err := juniper.Parse("j.cfg", gen.JuniperText)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name   string
		c1, c2 *ir.Config
	}{
		{"figure1", fig1a, fig1b},
		{"university-border", border.Config1, border.Config2},
		{"genpol-seed11", genC, genJ},
	} {
		b.Run(bc.name, func(b *testing.B) {
			f := bdd.NewFactory(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				enc := symbolic.NewRouteEncodingInto(f, bc.c1, bc.c2)
				headerloc.NewRouteLocalizer(enc, bc.c1, bc.c2)
			}
			b.ReportMetric(float64(f.Size()), "nodes/op")
		})
	}
}

// BenchmarkIntraPairACL10000 sweeps intra-pair striping over ONE
// 10k-rule ACL pair — the workload where inter-pair fan-out has nothing
// to parallelize. workers>1 engages the striped engine; the win is
// superadditive (region signatures let each stripe skip the lines that
// cannot match its region), so workers=4 beats workers=1 even on one
// CPU.
func BenchmarkIntraPairACL10000(b *testing.B) {
	pair := aclgen.Generate(aclgen.Params{Seed: 1, Rules: 10000, Differences: 10})
	mk := func(host string, acl *ir.ACL) *ir.Config {
		return &ir.Config{Hostname: host, ACLs: map[string]*ir.ACL{"BIG": acl}}
	}
	c1, c2 := mk("r1", pair.Cisco), mk("r2", pair.Juniper)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opts := core.Options{Components: []core.Component{core.ComponentACLs}, Workers: workers}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := core.Diff(c1, c2, opts)
				if err != nil {
					b.Fatal(err)
				}
				if len(rep.ACLDiffs) == 0 {
					b.Fatal("expected diffs")
				}
			}
		})
	}
}

// --- Parallel engine (worker sweep; compare workers=1 to workers=N) ---

// parallelFleetPair builds one config pair with many distinct route-map
// chains so the route-map worker pool has enough independent comparisons
// to spread across cores.
func parallelFleetPair(b *testing.B) (*ir.Config, *ir.Config) {
	b.Helper()
	build := func(side int) string {
		var s strings.Builder
		fmt.Fprintf(&s, "hostname r%d\n", side)
		for p := 0; p < 12; p++ {
			fmt.Fprintf(&s, "ip prefix-list NETS%d permit 10.%d.0.0/16 le 24\n", p, p+1)
			pref := 100 + p
			if side == 2 && p%2 == 1 {
				pref += 50
			}
			fmt.Fprintf(&s, "route-map POL%d permit 10\n match ip address NETS%d\n set local-preference %d\n", p, p, pref)
			fmt.Fprintf(&s, "route-map POL%d deny 20\n", p)
		}
		s.WriteString("router bgp 65001\n")
		for p := 0; p < 12; p++ {
			addr := fmt.Sprintf("10.%d.0.2", 200+p)
			fmt.Fprintf(&s, " neighbor %s remote-as 65002\n", addr)
			fmt.Fprintf(&s, " neighbor %s route-map POL%d in\n", addr, p)
		}
		return s.String()
	}
	c1, err := cisco.Parse("r1.cfg", build(1))
	if err != nil {
		b.Fatal(err)
	}
	c2, err := cisco.Parse("r2.cfg", build(2))
	if err != nil {
		b.Fatal(err)
	}
	return c1, c2
}

// BenchmarkParallelRouteMapDiff sweeps the route-map worker pool over one
// many-policy pair. On a single-CPU machine every size degenerates to the
// sequential schedule; on 4+ cores workers=4 should be >=2x workers=1.
func BenchmarkParallelRouteMapDiff(b *testing.B) {
	c1, c2 := parallelFleetPair(b)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opts := core.Options{
				Components: []core.Component{core.ComponentRouteMaps},
				Workers:    workers,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := core.Diff(c1, c2, opts)
				if err != nil {
					b.Fatal(err)
				}
				if len(rep.RouteMapDiffs) == 0 {
					b.Fatal("expected diffs")
				}
			}
		})
	}
}

// BenchmarkDiffBatch sweeps the batch-level pool over the testnets
// workload (university + datacenter pairs), each pair sequential inside.
func BenchmarkDiffBatch(b *testing.B) {
	var pairs []campion.ConfigPair
	add := func(name string, p testnets.Pair) {
		pairs = append(pairs, campion.ConfigPair{Name: name, Config1: p.Config1, Config2: p.Config2})
	}
	add("university-core", testnets.UniversityCore())
	add("university-border", testnets.UniversityBorder())
	add("datacenter-replacement", testnets.DatacenterReplacement())
	add("datacenter-gateway", testnets.DatacenterGateway())
	for i, p := range testnets.DatacenterToRPairs() {
		add(fmt.Sprintf("datacenter-tor-%d", i), p)
	}
	ctx := context.Background()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opts := campion.BatchOptions{BatchWorkers: workers}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				results, err := campion.DiffBatch(ctx, pairs, opts)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range results {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
		})
	}
}

// BenchmarkDiffObservability measures the cost of the obs layer on one
// many-policy pair: off (nil tracer, nil registry — the default) must be
// indistinguishable from the pre-obs engine, since every instrument site
// is a nil check; on pays span records and atomic counter flushes at
// component/worker/task granularity only.
func BenchmarkDiffObservability(b *testing.B) {
	c1, c2 := parallelFleetPair(b)
	opts0 := core.Options{Components: []core.Component{core.ComponentRouteMaps}, Workers: 1}
	b.Run("obs=off", func(b *testing.B) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.Diff(c1, c2, opts0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("obs=on", func(b *testing.B) {
		opts := opts0
		opts.Metrics = obs.NewRegistry()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			opts.Tracer = obs.NewTracer()
			if _, err := core.Diff(c1, c2, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("journal=on", func(b *testing.B) {
		opts := opts0
		opts.Journal = obs.NewJournal(io.Discard)
		opts.JournalPair = "bench pair"
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.Diff(c1, c2, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// fleetConfigs builds n near-identical router configurations (the backup
// fleet of §5.1): same policy structure and vocabulary, small per-router
// local-preference drifts, so an all-pairs audit re-resolves the same
// per-device chains on every pair.
func fleetConfigs(b *testing.B, n int) []campion.NamedConfig {
	b.Helper()
	build := func(r int) string {
		var s strings.Builder
		s.WriteString("hostname fleet\n")
		for p := 0; p < 8; p++ {
			fmt.Fprintf(&s, "ip prefix-list NETS%d permit 10.%d.0.0/16 le 24\n", p, p+1)
			pref := 100 + p
			if r%3 == 1 && p == 3 {
				pref += 40 // a drifted router
			}
			fmt.Fprintf(&s, "route-map POL%d permit 10\n match ip address NETS%d\n set local-preference %d\n", p, p, pref)
			fmt.Fprintf(&s, "route-map POL%d deny 20\n", p)
		}
		s.WriteString("router bgp 65001\n")
		for p := 0; p < 8; p++ {
			addr := fmt.Sprintf("10.%d.0.2", 200+p)
			fmt.Fprintf(&s, " neighbor %s remote-as 65002\n", addr)
			fmt.Fprintf(&s, " neighbor %s route-map POL%d in\n", addr, p)
		}
		return s.String()
	}
	cfgs := make([]campion.NamedConfig, n)
	for r := 0; r < n; r++ {
		cfg, err := cisco.Parse(fmt.Sprintf("r%d.cfg", r), build(r))
		if err != nil {
			b.Fatal(err)
		}
		cfgs[r] = campion.NamedConfig{Name: fmt.Sprintf("r%d", r), Config: cfg}
	}
	return cfgs
}

// BenchmarkDiffAllFleet measures the all-pairs fleet audit with and
// without the cross-pair compiled-policy cache: with it, each batch
// worker re-encodes every device's policies once instead of once per
// pair, so the audit's encoding cost is O(N) rather than O(N^2).
func BenchmarkDiffAllFleet(b *testing.B) {
	cfgs := fleetConfigs(b, 8)
	ctx := context.Background()
	for _, cache := range []bool{true, false} {
		name := "cache=on"
		if !cache {
			name = "cache=off"
		}
		b.Run(name, func(b *testing.B) {
			opts := campion.BatchOptions{BatchWorkers: 1, NoPolicyCache: !cache}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				results, err := campion.DiffAll(ctx, cfgs, opts)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range results {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
		})
	}
}

// BenchmarkFleetAudit measures the fleet-scale all-pairs path: a
// synthetic 100-device fleet (8 templates, 5% mutated) audited naive
// (every pair diffed), clustered (class representatives only), and warm
// (clustered over a pre-populated persistent cache — no parsing, no
// diffing, pure expansion). The N=1000/10000 curve lives in
// scripts/fleet_bench.sh; go-bench loops at that scale take minutes per
// iteration.
func BenchmarkFleetAudit(b *testing.B) {
	members := testnets.Fleet(testnets.FleetParams{
		Devices: 100, Templates: 8, MutationRate: 0.05, Seed: 1})
	devices := make([]campion.FleetDevice, len(members))
	for i, m := range members {
		cfg, err := campion.Parse(m.Name+".cfg", m.Text)
		if err != nil {
			b.Fatal(err)
		}
		devices[i] = campion.FleetDevice{Name: m.Name, Config: cfg}
	}
	ctx := context.Background()

	run := func(b *testing.B, opts campion.FleetOptions) {
		fr, err := campion.DiffFleet(ctx, devices, opts)
		if err != nil {
			b.Fatal(err)
		}
		pairs := 0
		fr.Each(func(res campion.BatchResult) bool {
			if res.Err != nil {
				b.Fatal(res.Err)
			}
			pairs++
			return true
		})
		if pairs != len(devices)*(len(devices)-1)/2 {
			b.Fatalf("expanded %d pairs", pairs)
		}
	}

	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(b, campion.FleetOptions{NoCluster: true})
		}
	})
	b.Run("clustered", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(b, campion.FleetOptions{})
		}
	})
	b.Run("warm", func(b *testing.B) {
		dir := b.TempDir()
		run(b, campion.FleetOptions{CacheDir: dir}) // populate
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run(b, campion.FleetOptions{CacheDir: dir})
		}
	})
}
