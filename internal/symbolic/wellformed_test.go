package symbolic

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bdd"
	"repro/internal/cisco"
	"repro/internal/ir"
	"repro/internal/juniper"
)

// referenceWellFormed rebuilds WellFormed and its prefix conjunct on the
// encoding's own factory the way the encoding first built them: one cube
// per prefix length folded into a growing disjunction, and each one-hot
// block as pairwise exclusions. It is cubic in the prefix width and
// quadratic in the block sizes, and serves only as the reference the
// linear construction must reproduce node for node.
func referenceWellFormed(e *RouteEncoding) (wf, prefixOK bdd.Node) {
	f := e.F
	prefixOK = bdd.False
	for L := 0; L <= 32; L++ {
		cube := e.prefixLen.eqConst(uint64(L))
		for i := 31; i >= L; i-- {
			cube = f.And(cube, f.NVar(e.prefixBits.first+i))
		}
		prefixOK = f.Or(prefixOK, cube)
	}
	atMostOne := func(first, n int) bdd.Node {
		out := bdd.True
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				out = f.And(out, f.Not(f.And(f.Var(first+i), f.Var(first+j))))
			}
		}
		return out
	}
	exactlyOne := func(first, n int) bdd.Node {
		any := bdd.False
		for i := 0; i < n; i++ {
			any = f.Or(any, f.Var(first+i))
		}
		return f.And(any, atMostOne(first, n))
	}
	wf = f.And(prefixOK, atMostOne(e.medVar0, len(e.medVals)))
	wf = f.And(wf, atMostOne(e.tagVar0, len(e.tagVals)))
	wf = f.And(wf, exactlyOne(e.protoVar0, len(protocolOrder)))
	wf = f.And(wf, exactlyOne(e.asVar0, len(e.asAtoms)))
	return wf, prefixOK
}

// atomVocabulary declares several MED, tag, as-path and community atoms,
// so every one-hot block of the encoding is longer than two variables.
const atomVocabulary = `hostname atoms
ip community-list standard C1 permit 65000:1
ip community-list standard C2 permit 65000:2 65000:3
ip community-list expanded CX permit ^65001:.*$
ip as-path access-list 1 permit ^65001_
ip as-path access-list 2 permit _65002$
ip as-path access-list 3 deny ^$
route-map ATOMS permit 10
 match metric 50
route-map ATOMS permit 20
 match metric 75
route-map ATOMS permit 30
 match metric 100
route-map ATOMS permit 40
 match tag 7
route-map ATOMS permit 50
 match tag 8
route-map ATOMS permit 60
 match tag 9
route-map ATOMS permit 70
 match as-path 1 2 3
route-map ATOMS permit 80
 match community C1 C2 CX
`

// wellFormedCase is one encoding TestWellFormedMatchesReference builds.
type wellFormedCase struct {
	name string
	cfgs []*ir.Config
}

// goldenCases parses every golden-corpus pair (a.cfg is IOS, b.cfg
// JunOS), in directory order.
func goldenCases(t *testing.T) []wellFormedCase {
	t.Helper()
	root := filepath.Join("..", "campiontest", "golden")
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	read := func(dir, name string) string {
		data, err := os.ReadFile(filepath.Join(root, dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	var out []wellFormedCase
	for _, de := range entries {
		if !de.IsDir() || de.Name() == "repair" {
			continue
		}
		a, err := cisco.Parse("a.cfg", read(de.Name(), "a.cfg"))
		if err != nil {
			t.Fatalf("%s: %v", de.Name(), err)
		}
		b, err := juniper.Parse("b.cfg", read(de.Name(), "b.cfg"))
		if err != nil {
			t.Fatalf("%s: %v", de.Name(), err)
		}
		out = append(out, wellFormedCase{name: "golden/" + de.Name(), cfgs: []*ir.Config{a, b}})
	}
	if len(out) < 10 {
		t.Fatalf("golden corpus has %d pairs, want at least 10", len(out))
	}
	return out
}

// TestWellFormedMatchesReference: the linear construction yields the
// very node the original fold yields, and PrefixUniverse is WellFormed
// with every non-prefix variable quantified out.
func TestWellFormedMatchesReference(t *testing.T) {
	atoms, err := cisco.Parse("atoms.cfg", atomVocabulary)
	if err != nil {
		t.Fatal(err)
	}
	if e := NewRouteEncoding(atoms); len(e.medVals) < 3 || len(e.tagVals) < 3 || len(e.asAtoms) < 3 {
		t.Fatalf("atom vocabulary too small: %v", e)
	}

	tests := append([]wellFormedCase{
		{name: "atoms", cfgs: []*ir.Config{atoms}},
		{name: "no-configs"},
	}, goldenCases(t)...)

	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			e := NewRouteEncoding(tt.cfgs...)
			wf, prefixOK := referenceWellFormed(e)
			if e.WellFormed != wf {
				t.Errorf("WellFormed is node %d, reference fold gives %d", e.WellFormed, wf)
			}
			if e.PrefixUniverse != prefixOK {
				t.Errorf("PrefixUniverse is node %d, reference fold gives %d", e.PrefixUniverse, prefixOK)
			}
			if got := e.F.Exists(e.WellFormed, e.NonPrefixVars()); got != e.PrefixUniverse {
				t.Errorf("Exists(WellFormed, NonPrefixVars) is node %d, PrefixUniverse %d", got, e.PrefixUniverse)
			}
		})
	}
}
