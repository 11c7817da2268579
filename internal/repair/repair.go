// Package repair synthesizes oracle-validated minimal edits that make a
// differing configuration pair behaviorally equivalent. Given the
// localized diff regions Campion reports for a policy-chain pair, the
// search generates clause- and list-level candidate edits to config B
// seeded by the regions' deciding clauses, scores each candidate by
// re-running SemanticDiff on the patched IR, and accepts a repair only
// when the symbolic re-diff is empty AND the concrete oracle agrees with
// config A on every stored witness and sampled route — the same
// dual-implementation discipline the differential harness applies to the
// engine itself.
package repair

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/ddnf"
	"repro/internal/headerloc"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/semdiff"
	"repro/internal/symbolic"
)

// Options tunes the repair search. The zero value gets sensible
// defaults from withDefaults.
type Options struct {
	// MaxEdits bounds the number of edits a repair may compose
	// (the -budget flag). Default 2 — Figure 1's translation bug needs a
	// prefix-exactness fix and a community-conjunction fix.
	MaxEdits int
	// MaxCandidates bounds the total candidate evaluations (symbolic
	// re-diffs) across all depths. Default 4000.
	MaxCandidates int
	// TopK bounds how many verified repairs (or best partial candidates)
	// are reported per pair. Default 3.
	TopK int
	// Samples is the number of well-formed routes sampled for the
	// concrete oracle cross-check, in addition to one witness per diff
	// region. Default 48.
	Samples int
	// Seed drives the sampling RNG; the search itself is deterministic.
	Seed int64
	// Timeout, when positive, caps the wall time of one Run call.
	Timeout time.Duration
	// MaxNodes is the per-pair BDD node budget (0 = unlimited); overrun
	// degrades the pair to a structured ErrBudget failure.
	MaxNodes int
	// Journal, when non-nil, receives one EvRepair event per pair.
	Journal *obs.Journal
	// Metrics, when non-nil, receives campion_repair_* counters.
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.MaxEdits <= 0 {
		o.MaxEdits = 2
	}
	if o.MaxCandidates <= 0 {
		o.MaxCandidates = 4000
	}
	if o.TopK <= 0 {
		o.TopK = 3
	}
	if o.Samples <= 0 {
		o.Samples = 48
	}
	return o
}

// Candidate is one evaluated repair: an edit sequence, its total size,
// and how it scored.
type Candidate struct {
	Edits []Edit
	// Size is the summed edit size (clause-level ops count 1; list
	// rewrites count their entry distance).
	Size int
	// Residual is the number of diff regions remaining after the edits.
	Residual int
	// Residuals summarizes the remaining regions (partial candidates).
	Residuals []string
	// Verified means the symbolic re-diff was empty AND the concrete
	// oracle agreed with config A on every stored route.
	Verified bool
	// Renderable means every edit has a vendor-text rendering for
	// config B's dialect (a repair can be semantically verified yet only
	// expressible in IR).
	Renderable bool
}

// Describe renders the candidate's edit sequence.
func (c Candidate) Describe() string {
	out := ""
	for i, e := range c.Edits {
		if i > 0 {
			out += "; "
		}
		out += e.Describe()
	}
	return out
}

// PairRepair is the repair outcome for one matched policy-chain pair.
type PairRepair struct {
	Pair core.PolicyPair
	// InitialDiffs is the region count of the pair's original diff;
	// 0 means the pair was already equivalent.
	InitialDiffs int
	// Repair is the accepted minimal repair, nil if none was found.
	Repair *Candidate
	// Alternatives holds further verified repairs, or — when Repair is
	// nil — the best partial candidates with residual summaries.
	Alternatives []Candidate
	// Candidates counts the candidate evaluations spent.
	Candidates int
	// OracleRejections counts candidates whose symbolic re-diff was
	// empty but that the concrete oracle refuted — each one a
	// symbolic/concrete divergence worth a bug report.
	OracleRejections int
	// Depth is the edit-composition depth the search reached.
	Depth   int
	Elapsed time.Duration
	// Err is a structured *core.PairError when the pair degraded
	// (budget, cancellation, crash) instead of completing.
	Err error
}

// Kind classifies the outcome for journaling: clean, repaired, partial,
// or failed.
func (pr PairRepair) Kind() string {
	switch {
	case pr.Err != nil:
		return "failed"
	case pr.InitialDiffs == 0:
		return "clean"
	case pr.Repair != nil:
		return "repaired"
	case len(pr.Alternatives) > 0:
		return "partial"
	default:
		return "failed"
	}
}

// Result is the outcome of one Run over a configuration pair.
type Result struct {
	Config1, Config2 *ir.Config
	Pairs            []PairRepair
	// PatchedB is config B with every pair's accepted repair applied,
	// set only when all differing pairs were repaired and the combined
	// edits re-verified together (edits of different pairs can interact
	// through shared lists).
	PatchedB *ir.Config
	// Conflicts lists pairs whose individually-verified repairs stopped
	// verifying under the combined patch.
	Conflicts []string
}

// Repaired reports whether every differing pair has a verified repair
// and the combined patch holds.
func (r *Result) Repaired() bool {
	for _, p := range r.Pairs {
		if p.InitialDiffs > 0 && p.Repair == nil {
			return false
		}
		if p.Err != nil {
			return false
		}
	}
	return len(r.Conflicts) == 0
}

// TotalDiffs sums the pairs' initial diff-region counts.
func (r *Result) TotalDiffs() int {
	n := 0
	for _, p := range r.Pairs {
		n += p.InitialDiffs
	}
	return n
}

// Edits returns the combined edit sequence of all accepted repairs.
func (r *Result) Edits() []Edit {
	var out []Edit
	for _, p := range r.Pairs {
		if p.Repair != nil {
			out = append(out, p.Repair.Edits...)
		}
	}
	return out
}

// matchPairs is core's pairing policy: BGP/redistribution chains via
// MatchPolicies, falling back to same-named route maps for standalone
// policy files. Duplicate chain pairs (several neighbors sharing one
// policy pair) search once.
func matchPairs(cfg1, cfg2 *ir.Config) []core.PolicyPair {
	pairs := core.MatchPolicies(cfg1, cfg2)
	if len(pairs) == 0 {
		var names []string
		for n := range cfg1.RouteMaps {
			if _, ok := cfg2.RouteMaps[n]; ok {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		for _, n := range names {
			pairs = append(pairs, core.PolicyPair{
				Kind: "route-map", Neighbor: n,
				Names1: []string{n}, Names2: []string{n},
				Name1: n, Name2: n,
			})
		}
	}
	seen := map[string]bool{}
	uniq := pairs[:0]
	for _, p := range pairs {
		key := fmt.Sprintf("%q/%q", p.Names1, p.Names2)
		if !seen[key] {
			seen[key] = true
			uniq = append(uniq, p)
		}
	}
	return uniq
}

// Run searches for repairs to cfg2 for every matched policy pair that
// differs from cfg1. The returned error is non-nil only for caller
// mistakes (nil configs); per-pair degradation is recorded in
// PairRepair.Err, matching core's isolation discipline.
func Run(ctx context.Context, cfg1, cfg2 *ir.Config, opts Options) (*Result, error) {
	if cfg1 == nil || cfg2 == nil {
		return nil, errors.New("repair: nil config")
	}
	opts = opts.withDefaults()
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}
	res := &Result{Config1: cfg1, Config2: cfg2}
	for _, pair := range matchPairs(cfg1, cfg2) {
		pr := searchChain(ctx, cfg1, cfg2, pair, opts)
		emitPair(opts, pr)
		res.Pairs = append(res.Pairs, pr)
	}
	res.applyCombined(opts)
	return res, nil
}

// applyCombined builds PatchedB when every differing pair was repaired,
// re-verifying the pairs under the union of all edits.
func (r *Result) applyCombined(opts Options) {
	edits := r.Edits()
	ok := len(r.Conflicts) == 0
	for _, p := range r.Pairs {
		if p.Err != nil || (p.InitialDiffs > 0 && p.Repair == nil) {
			ok = false
		}
	}
	if !ok || len(edits) == 0 {
		return
	}
	patched := r.Config2.ClonePolicy()
	for _, e := range edits {
		if err := e.Apply(patched); err != nil {
			r.Conflicts = append(r.Conflicts, fmt.Sprintf("apply %s: %v", e.Describe(), err))
			return
		}
	}
	f := bdd.NewFactory(0)
	for _, p := range r.Pairs {
		rm1 := core.ResolveChain(r.Config1, p.Pair.Names1)
		rm2 := core.ResolveChain(patched, p.Pair.Names2)
		enc := symbolic.NewRouteEncodingInto(f, r.Config1, patched)
		ds, err := semdiff.DiffRouteMapsLimit(enc, r.Config1, rm1, patched, rm2, 1)
		if err != nil || len(ds) != 0 {
			r.Conflicts = append(r.Conflicts, p.Pair.String())
		}
	}
	if len(r.Conflicts) == 0 {
		r.PatchedB = patched
	}
}

// emitPair journals and counts one pair's outcome.
func emitPair(opts Options, pr PairRepair) {
	kind := pr.Kind()
	if opts.Journal != nil {
		detail := map[string]string{"depth": fmt.Sprint(pr.Depth)}
		if pr.Repair != nil {
			detail["edits"] = pr.Repair.Describe()
			detail["size"] = fmt.Sprint(pr.Repair.Size)
		}
		if pr.OracleRejections > 0 {
			detail["oracle_rejections"] = fmt.Sprint(pr.OracleRejections)
		}
		ev := obs.Event{
			Type: obs.EvRepair, Pair: pr.Pair.String(), Kind: kind,
			Dur: int64(pr.Elapsed), Diffs: pr.InitialDiffs, N: int64(pr.Candidates),
			Detail: detail,
		}
		if pr.Err != nil {
			ev.Err = pr.Err.Error()
		}
		opts.Journal.Emit(ev)
	}
	if opts.Metrics != nil {
		opts.Metrics.Counter("campion_repair_pairs_total",
			"repair outcomes by kind", obs.L("outcome", kind)).Add(1)
		opts.Metrics.Counter("campion_repair_candidates_total",
			"candidate edit sequences evaluated").Add(uint64(pr.Candidates))
		opts.Metrics.Counter("campion_repair_oracle_rejections_total",
			"symbolically-clean candidates refuted by the concrete oracle").Add(uint64(pr.OracleRejections))
		opts.Metrics.Counter("campion_repair_duration_nanoseconds",
			"wall time spent in repair search").Add(uint64(pr.Elapsed.Nanoseconds()))
	}
}

// pollFn adapts a context into the kernel's interrupt poll, observing a
// passed deadline even before the timer fires (core's ctxErr contract).
func pollFn(ctx context.Context) func() error {
	return func() error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
			return context.DeadlineExceeded
		}
		return nil
	}
}

// pairFailure converts a recovered panic into the pair's structured
// error, mirroring core's taskFailure taxonomy.
func pairFailure(r any, pair core.PolicyPair) error {
	if a, ok := r.(bdd.Abort); ok {
		kind := core.ErrCanceled
		if errors.Is(a.Err, bdd.ErrNodeBudget) {
			kind = core.ErrBudget
		}
		return &core.PairError{Pair: pair.String(), Kind: kind, Err: a.Err}
	}
	return &core.PairError{
		Pair: pair.String(), Kind: core.ErrInternal,
		Err: fmt.Errorf("panic: %v", r), Stack: string(debug.Stack()),
	}
}

// scored is a candidate edit sequence with its re-diff region count.
type scored struct {
	edits    []Edit
	size     int
	residual int
	// maxIdx is the largest single-candidate pool index in the sequence;
	// beam extension only appends higher indices, so each combination is
	// evaluated once regardless of order.
	maxIdx int
}

// searchChain runs the repair search for one policy-chain pair.
func searchChain(ctx context.Context, cfg1, cfg2 *ir.Config, pair core.PolicyPair, opts Options) (pr PairRepair) {
	start := time.Now()
	pr.Pair = pair
	defer func() {
		pr.Elapsed = time.Since(start)
		if r := recover(); r != nil {
			pr.Err = pairFailure(r, pair)
		}
	}()

	poll := pollFn(ctx)
	if err := poll(); err != nil {
		pr.Err = &core.PairError{Pair: pair.String(), Kind: core.ErrCanceled, Err: err}
		return pr
	}

	rm1 := core.ResolveChain(cfg1, pair.Names1)
	rm2 := core.ResolveChain(cfg2, pair.Names2)

	// Initial diff + witness collection on a dedicated factory.
	f := bdd.NewFactory(0)
	f.SetInterrupt(opts.MaxNodes, poll)
	enc0 := symbolic.NewRouteEncodingInto(f, cfg1, cfg2)
	diffs0, err := semdiff.DiffRouteMaps(enc0, cfg1, rm1, cfg2, rm2)
	if err != nil {
		pr.Err = &core.PairError{Pair: pair.String(), Kind: core.ErrInternal, Err: err}
		return pr
	}
	pr.InitialDiffs = len(diffs0)
	if len(diffs0) == 0 {
		return pr
	}

	routes := collectRoutes(enc0, diffs0, opts)
	terms := localizeDiffs(enc0, cfg1, cfg2, diffs0)

	gctx := newGenContext(cfg1, cfg2, rm1, rm2, pair.Names2, terms)
	singles := generate(gctx, diffs0)
	if len(singles) > opts.MaxCandidates {
		singles = singles[:opts.MaxCandidates]
	}

	// Scoring factory: every candidate rebuilds the encoding over
	// (cfg1, patched), which resets the factory, so evaluations are
	// independent and the node budget applies per candidate.
	f2 := bdd.NewFactory(0)
	f2.SetInterrupt(opts.MaxNodes, poll)
	budget := opts.MaxCandidates

	type evalResult struct {
		residual int
		diffs    []semdiff.RouteMapDiff
		patched  *ir.Config
		rm2p     *ir.RouteMap
		enc      *symbolic.RouteEncoding
		ok       bool
	}
	eval := func(edits []Edit, limit int) evalResult {
		pr.Candidates++
		budget--
		f2.BeginWork()
		patched := cfg2.ClonePolicy()
		for _, e := range edits {
			if err := e.Apply(patched); err != nil {
				return evalResult{}
			}
		}
		enc := symbolic.NewRouteEncodingInto(f2, cfg1, patched)
		rm2p := core.ResolveChain(patched, pair.Names2)
		ds, err := semdiff.DiffRouteMapsLimit(enc, cfg1, rm1, patched, rm2p, limit)
		if err != nil {
			return evalResult{}
		}
		return evalResult{residual: len(ds), diffs: ds, patched: patched, rm2p: rm2p, enc: enc, ok: true}
	}
	verify := func(patched *ir.Config, rm2p *ir.RouteMap) bool {
		for _, r := range routes {
			d1 := oracle.EvalRouteMap(cfg1, rm1, r)
			d2 := oracle.EvalRouteMap(patched, rm2p, r)
			if d1.Disagrees(d2) {
				pr.OracleRejections++
				return false
			}
		}
		return true
	}
	finish := func(c scored) *Candidate {
		cand := &Candidate{Edits: c.edits, Size: c.size, Residual: c.residual, Renderable: true}
		for _, e := range c.edits {
			if _, ok := renderEditOps(cfg2, e); !ok {
				cand.Renderable = false
			}
		}
		if c.residual > 0 {
			if ev := eval(c.edits, 4); ev.ok {
				cand.Residuals = summarizeDiffs(ev.diffs)
			}
		}
		return cand
	}

	// Depth 1: score every single in minimality order; oracle-verify
	// zero-residual hits as they appear, so the first survivor is the
	// minimal repair under the deterministic candidate order.
	pr.Depth = 1
	var verified []scored
	var partials []scored
	for i, e := range singles {
		if budget <= 0 {
			break
		}
		ev := eval([]Edit{e}, 0)
		if !ev.ok {
			continue
		}
		s := scored{edits: []Edit{e}, size: e.Size(), residual: ev.residual, maxIdx: i}
		if ev.residual == 0 {
			if verify(ev.patched, ev.rm2p) {
				verified = append(verified, s)
				if len(verified) >= opts.TopK {
					break
				}
			}
			continue
		}
		partials = append(partials, s)
	}

	// Beam deepening: extend the best partial sequences with the best
	// partial singles, one depth at a time, until a verified repair
	// appears or the edit budget runs out.
	const beamWidth, extendPool = 8, 24
	sortScored(partials)
	pool := partials
	if len(pool) > extendPool {
		pool = pool[:extendPool]
	}
	beam := partials
	if len(beam) > beamWidth {
		beam = beam[:beamWidth]
	}
	for depth := 2; depth <= opts.MaxEdits && len(verified) == 0 && budget > 0 && len(beam) > 0; depth++ {
		pr.Depth = depth
		var zeros []scored
		var next []scored
		for _, combo := range beam {
			for _, p := range pool {
				if budget <= 0 {
					break
				}
				if p.maxIdx <= combo.maxIdx {
					continue
				}
				if overlaps(combo.edits, p.edits[0]) {
					continue
				}
				edits := append(append([]Edit(nil), combo.edits...), p.edits[0])
				ev := eval(edits, 0)
				if !ev.ok {
					continue
				}
				s := scored{edits: edits, size: combo.size + p.edits[0].Size(), residual: ev.residual, maxIdx: p.maxIdx}
				if ev.residual == 0 {
					if verify(ev.patched, ev.rm2p) {
						zeros = append(zeros, s)
					}
					continue
				}
				next = append(next, s)
			}
		}
		if len(zeros) > 0 {
			sortScored(zeros)
			if len(zeros) > opts.TopK {
				zeros = zeros[:opts.TopK]
			}
			verified = zeros
			break
		}
		sortScored(next)
		beam = next
		if len(beam) > beamWidth {
			beam = beam[:beamWidth]
		}
	}

	if len(verified) > 0 {
		first := finish(verified[0])
		first.Verified = true
		pr.Repair = first
		for _, v := range verified[1:] {
			alt := finish(v)
			alt.Verified = true
			pr.Alternatives = append(pr.Alternatives, *alt)
		}
		return pr
	}

	// No repair: report the best residual-reducing candidates with
	// summaries of what remains.
	best := append(partials, beam...)
	sortScored(best)
	seen := map[string]bool{}
	for _, s := range best {
		if s.residual >= len(diffs0) {
			continue
		}
		c := finish(s)
		if seen[c.Describe()] {
			continue
		}
		seen[c.Describe()] = true
		pr.Alternatives = append(pr.Alternatives, *c)
		if len(pr.Alternatives) >= opts.TopK {
			break
		}
	}
	return pr
}

// sortScored orders candidates by (residual, size, description) — the
// search's global notion of "better".
func sortScored(s []scored) {
	sort.SliceStable(s, func(i, j int) bool {
		if s[i].residual != s[j].residual {
			return s[i].residual < s[j].residual
		}
		if s[i].size != s[j].size {
			return s[i].size < s[j].size
		}
		return describeEdits(s[i].edits) < describeEdits(s[j].edits)
	})
}

func describeEdits(es []Edit) string {
	out := ""
	for _, e := range es {
		out += e.Describe() + ";"
	}
	return out
}

// overlaps reports whether an edit duplicates one already in the
// sequence (beam extension never stacks identical edits).
func overlaps(es []Edit, e Edit) bool {
	d := e.Describe()
	for _, o := range es {
		if o.Describe() == d {
			return true
		}
	}
	return false
}

// collectRoutes draws the concrete routes the oracle cross-check runs
// on: one exact witness per diff region plus well-formed samples. All
// draws happen on the initial encoding so the stored routes are
// independent of any candidate.
func collectRoutes(enc *symbolic.RouteEncoding, diffs []semdiff.RouteMapDiff, opts Options) []*ir.Route {
	var routes []*ir.Route
	for i, d := range diffs {
		if i >= 16 {
			break
		}
		if w, exact := enc.WitnessRoute(d.Inputs); exact && w != nil {
			routes = append(routes, w)
		}
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	coin := func() bool { return rng.Intn(2) == 1 }
	for i := 0; i < opts.Samples; i++ {
		set := enc.WellFormed
		if len(diffs) > 0 && i%2 == 0 {
			// Alternate draws between the differing regions (where the
			// repair must change behavior to match A) and the whole
			// space (where it must not regress agreement).
			set = diffs[(i/2)%len(diffs)].Inputs
		}
		a := enc.F.RandSat(set, coin)
		if a == nil {
			continue
		}
		if r, ok := enc.ExactRoute(a); ok {
			routes = append(routes, r)
		}
	}
	return routes
}

// localizeDiffs computes the per-region prefix localization terms that
// seed range-surgery candidates.
func localizeDiffs(enc *symbolic.RouteEncoding, cfg1, cfg2 *ir.Config, diffs []semdiff.RouteMapDiff) [][]ddnf.FlatTerm {
	loc := headerloc.NewRouteLocalizer(enc, cfg1, cfg2)
	out := make([][]ddnf.FlatTerm, len(diffs))
	for i, d := range diffs {
		l := loc.Localize(d.Inputs)
		ts := l.Terms
		if len(ts) > 8 {
			ts = ts[:8]
		}
		out[i] = ts
	}
	return out
}

// summarizeDiffs renders residual regions for partial-candidate reports.
func summarizeDiffs(diffs []semdiff.RouteMapDiff) []string {
	var out []string
	for i, d := range diffs {
		if i >= 4 {
			out = append(out, fmt.Sprintf("... and %d more regions", len(diffs)-i))
			break
		}
		out = append(out, fmt.Sprintf("A %s (%s) vs B %s (%s)",
			clauseLabel(d.Path1.Terminal), acceptWord(d.Path1.Accept),
			clauseLabel(d.Path2.Terminal), acceptWord(d.Path2.Accept)))
	}
	return out
}

func acceptWord(a bool) string {
	if a {
		return "accept"
	}
	return "reject"
}
