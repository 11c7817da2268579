package repair

import (
	"fmt"
	"math/rand"

	"repro/internal/arista"
	"repro/internal/bdd"
	"repro/internal/cisco"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/juniper"
	"repro/internal/oracle"
	"repro/internal/semdiff"
	"repro/internal/symbolic"
)

// VerifyEquivalent checks that cfg1 and patched agree on every matched
// policy pair, first symbolically (SemanticDiff must be empty), then
// concretely (the oracle interpreter must agree on sampled routes). It is
// the final gate both for Result.PatchedB and for text round-trips:
// whatever IR the patched text re-parses to must still be equivalent.
func VerifyEquivalent(cfg1, patched *ir.Config, opts Options) error {
	opts = opts.withDefaults()
	f := bdd.NewFactory(0)
	rng := rand.New(rand.NewSource(opts.Seed))
	coin := func() bool { return rng.Intn(2) == 1 }
	for _, pair := range matchPairs(cfg1, patched) {
		rm1 := core.ResolveChain(cfg1, pair.Names1)
		rm2 := core.ResolveChain(patched, pair.Names2)
		enc := symbolic.NewRouteEncodingInto(f, cfg1, patched)
		ds, err := semdiff.DiffRouteMapsLimit(enc, cfg1, rm1, patched, rm2, 1)
		if err != nil {
			return fmt.Errorf("pair %s: %w", pair, err)
		}
		if len(ds) != 0 {
			w, _ := enc.WitnessRoute(ds[0].Inputs)
			return fmt.Errorf("pair %s: symbolic re-diff non-empty (witness %v)", pair, w)
		}
		for i := 0; i < opts.Samples; i++ {
			a := enc.F.RandSat(enc.WellFormed, coin)
			if a == nil {
				break
			}
			r, ok := enc.ExactRoute(a)
			if !ok {
				continue
			}
			d1 := oracle.EvalRouteMap(cfg1, rm1, r)
			d2 := oracle.EvalRouteMap(patched, rm2, r)
			if d1.Disagrees(d2) {
				return fmt.Errorf("pair %s: oracle disagrees on %v (A %v, B %v)",
					pair, r, d1.Action, d2.Action)
			}
		}
	}
	return nil
}

// ReparseVerify parses patched config-B text in the given dialect and
// checks the resulting IR is equivalent to cfg1 — the proof that the
// rendered patch, not just the in-memory IR edit, fixes the difference.
func ReparseVerify(cfg1 *ir.Config, vendor ir.Vendor, file, text string, opts Options) (*ir.Config, error) {
	var (
		patched *ir.Config
		err     error
	)
	switch vendor {
	case ir.VendorCisco:
		patched, err = cisco.Parse(file, text)
	case ir.VendorJuniper:
		patched, err = juniper.Parse(file, text)
	case ir.VendorArista:
		patched, err = arista.Parse(file, text)
	default:
		return nil, fmt.Errorf("unsupported vendor %v", vendor)
	}
	if err != nil {
		return nil, fmt.Errorf("patched text does not parse: %w", err)
	}
	if err := VerifyEquivalent(cfg1, patched, opts); err != nil {
		return nil, err
	}
	return patched, nil
}
