// Cross-pair compiled-policy cache. A DiffAll over N routers runs
// O(N²) pairwise comparisons, and without help each one re-encodes the
// same per-device policies from scratch: the pair (A,B) compiles A's
// export chain, and the pair (A,C) compiles it again. A PolicyCache keys
// compiled chains by (configuration identity, chain name sequence) and
// reuses them across every pair its owner is assigned, which is sound
// exactly when the pairs induce the same encoding — the cache checks
// that with symbolic.VocabFingerprint and rebuilds (recycling the
// factory through Reset) when the vocabulary shifts.
package core

import (
	"context"
	"strings"

	"repro/internal/bdd"
	"repro/internal/ir"
	"repro/internal/symbolic"
)

// PolicyCache carries a BDD factory, its route encoding, and the chains
// compiled on it across Diff calls. It is single-goroutine state: one
// cache per worker, never shared. Reports are byte-identical with and
// without a cache — BDDs are canonical given the variable order, so a
// recalled chain is structurally identical to a re-encoded one, and every
// report artifact (AnySat examples, cube walks) depends only on BDD
// structure.
type PolicyCache struct {
	fp    string
	enc   *symbolic.RouteEncoding
	paths map[policyKey]policyEntry

	// ChainHits and ChainMisses count compiled-chain recalls vs
	// compilations; Rebuilds counts vocabulary changes (each one resets
	// the factory and flushes the compiled chains).
	ChainHits, ChainMisses int
	Rebuilds               int
}

// policyKey identifies a compiled chain: the owning configuration (by
// pointer — parsed configs are immutable) and the exact chain name
// sequence.
type policyKey struct {
	cfg   *ir.Config
	chain string
}

type policyEntry struct {
	paths []symbolic.RoutePath
	err   error
}

// NewPolicyCache returns an empty cache. The first encodingFor call
// builds its factory.
func NewPolicyCache() *PolicyCache {
	return &PolicyCache{paths: map[policyKey]policyEntry{}}
}

// newWorkerPolicyCache wraps an already-built encoding in a transient
// cache, so a parallel worker deduplicates chain compilations across the
// tasks it pulls even when no cross-call cache was supplied.
func newWorkerPolicyCache(enc *symbolic.RouteEncoding) *PolicyCache {
	return &PolicyCache{enc: enc, paths: map[policyKey]policyEntry{}}
}

// encodingFor returns an encoding valid for the pair (c1, c2), reusing
// the cached encoding — and every chain compiled on it — when the
// derived vocabulary is identical, and rebuilding into the recycled
// factory otherwise. The factory is armed with the run's interrupt
// (MaxNodes budget + context poll) before any encoding work, whether
// recalled or rebuilt, so even vocabulary atomization honors
// cancellation.
func (pc *PolicyCache) encodingFor(ctx context.Context, c1, c2 *ir.Config, opts Options) *symbolic.RouteEncoding {
	fp := symbolic.VocabFingerprint(c1, c2)
	if pc.enc != nil && pc.fp == fp {
		pc.enc.F.SetInterrupt(opts.MaxNodes, func() error { return ctxErr(ctx) })
		return pc.enc
	}
	var f *bdd.Factory
	if pc.enc != nil {
		// Recycle the cache's own factory (Reset inside the constructor
		// keeps its allocations).
		f = pc.enc.F
		f.SetInterrupt(opts.MaxNodes, func() error { return ctxErr(ctx) })
	} else {
		f = newArmedFactory(ctx, opts)
	}
	pc.enc = symbolic.NewRouteEncodingInto(f, c1, c2)
	pc.fp = fp
	clear(pc.paths)
	pc.Rebuilds++
	return pc.enc
}

// invalidate flushes the compiled chains and forces the next encodingFor
// to rebuild the encoding. Called after a budget abort (the arena holds
// unreferenced garbage from the abandoned computation) or a recovered
// crash (the symbolic state is unverified); the factory allocation is
// still recycled through the rebuild's Reset.
func (pc *PolicyCache) invalidate() {
	pc.fp = ""
	clear(pc.paths)
}

// Release empties the cache and returns its factory to the shared pool,
// for an owner that is done with it (a batch worker at exit). A cache a
// failure invalidated keeps its factory out of the pool: a recovered
// crash leaves its state unverified. The cache starts cold if used again.
func (pc *PolicyCache) Release() {
	if pc.enc != nil && pc.fp != "" {
		putFactory(pc.enc.F)
	}
	pc.enc, pc.fp = nil, ""
	clear(pc.paths)
}

// pathsFor compiles (or recalls) the path equivalence classes of the
// resolved chain names on cfg.
func (pc *PolicyCache) pathsFor(cfg *ir.Config, names []string) ([]symbolic.RoutePath, error) {
	k := policyKey{cfg: cfg, chain: strings.Join(names, "\x00")}
	if e, ok := pc.paths[k]; ok {
		pc.ChainHits++
		return e.paths, e.err
	}
	pc.ChainMisses++
	paths, err := pc.enc.EnumeratePaths(cfg, ResolveChain(cfg, names))
	pc.paths[k] = policyEntry{paths: paths, err: err}
	return paths, err
}
