// Parallel SemanticDiff execution engine. Every matched policy pair is an
// independent semantic check (the modularity of §3 is what makes the
// comparison parallelizable), so unique chain comparisons fan out over a
// worker pool. Each worker owns a private symbolic.RouteEncoding — and
// therefore a private BDD factory — so BDD nodes never cross goroutines;
// workers hand back fully localized, factory-independent results, and the
// report is assembled in matched-pair order regardless of completion
// order, keeping output byte-identical to a sequential run.
//
// The engine is hardened for unattended batch audits: every task honors
// the run's context (polled from inside the BDD kernels via the factory
// interrupt), respects the Options.MaxNodes budget, and runs under a
// panic guard that converts a crash or kernel abort into a structured
// PairError while sibling tasks keep running on intact state.
package core

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"repro/internal/bdd"
	"repro/internal/headerloc"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/semdiff"
	"repro/internal/symbolic"
)

// TestTaskHook, when non-nil, runs at the start of every guarded
// route-map task with the chain names of both sides. It is the
// fault-injection point of the engine's tests — a hook that panics
// simulates a worker crash, one that cancels a context simulates a
// deadline landing mid-batch. Set it only from tests, while no Diff is
// running.
var TestTaskHook func(names1, names2 []string)

// factoryPool recycles BDD factories across workers and Diff calls. The
// encoding constructors Reset a recycled factory, so its grown arena,
// unique table, and op cache are reused at full size — regrowth
// (rehashing, cache doubling, arena copies) otherwise dominates
// hash-consing on every fresh comparison.
var factoryPool sync.Pool

// getFactory returns a recycled factory, or nil on a cold pool — the
// encoding constructors treat nil as "allocate fresh".
func getFactory() *bdd.Factory {
	f, _ := factoryPool.Get().(*bdd.Factory)
	return f
}

// newArmedFactory returns a pooled (or fresh) factory with the run's
// interrupt installed: the MaxNodes budget and a poll of the context.
// Arming happens before any encoding work, so vocabulary atomization and
// WellFormed construction are already under the guard.
func newArmedFactory(ctx context.Context, opts Options) *bdd.Factory {
	f := getFactory()
	if f == nil {
		f = bdd.NewFactory(0) // resized by the encoding constructor's Reset
	}
	f.SetInterrupt(opts.MaxNodes, func() error { return ctxErr(ctx) })
	return f
}

// putFactory returns a factory for reuse once every node referencing it
// has been localized into factory-independent results. The interrupt is
// stripped so a stale poll closure can never abort the next owner.
func putFactory(f *bdd.Factory) {
	if f != nil {
		f.ClearInterrupt()
		factoryPool.Put(f)
	}
}

// workerCount resolves Options.Workers against the task count.
func (o Options) workerCount(tasks int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > tasks {
		w = tasks
	}
	if w < 1 {
		w = 1
	}
	return w
}

// chainKeyOf identifies a resolved chain comparison by the exact policy
// name sequences on both sides. Keying on the sequences rather than a
// joined display string keeps chains distinct even when a policy name
// contains a separator character.
func chainKeyOf(names1, names2 []string) string {
	return strings.Join(names1, "\x00") + "\x01" + strings.Join(names2, "\x00")
}

// rmTask is one unique chain comparison; many matched pairs can share it
// (the same export policy applied to 40 neighbors is checked once).
type rmTask struct {
	names1, names2 []string
}

// label renders the task for error provenance.
func (t rmTask) label() string {
	return chainName(t.names1) + " vs " + chainName(t.names2)
}

// localizedRouteDiff is a factory-independent difference: everything the
// report needs, with no live BDD nodes, so it can safely cross goroutines.
// key1 and key2 place its two path classes in their sides' enumeration
// orders; a task's differences come out in (key1, key2) order.
type localizedRouteDiff struct {
	Localization     headerloc.RouteLocalization
	Action1, Action2 string
	Text1, Text2     ir.TextSpan
	key1, key2       sideKey
}

// sideKey is a path class's place in its side's enumeration order: idx is
// its index in the plain product loop, path the DFS path key a striped
// merge sorts by (pathKey). One task sets only one of the two.
type sideKey struct {
	idx  int
	path string
}

func (a sideKey) less(b sideKey) bool {
	if a.idx != b.idx {
		return a.idx < b.idx
	}
	return a.path < b.path
}

// localizeRouteDiff renders one difference on the factory its input set
// lives on.
func localizeRouteDiff(loc *headerloc.RouteLocalizer, d semdiff.RouteMapDiff, opts Options, key1, key2 sideKey) localizedRouteDiff {
	localization := loc.Localize(d.Inputs)
	if opts.ExhaustiveCommunities {
		localization.CommunityTerms, localization.CommunityComplete =
			loc.LocalizeCommunities(d.Inputs, maxCommunityTerms)
	}
	return localizedRouteDiff{
		Localization: localization,
		Action1:      describeRouteAction(d.Path1),
		Action2:      describeRouteAction(d.Path2),
		Text1:        routePathText(d.Path1),
		Text2:        routePathText(d.Path2),
		key1:         key1,
		key2:         key2,
	}
}

// lazyLocalizer builds a pair's route localizer the first time a task
// finds a difference. Most chain comparisons find none, and then the
// ddNF DAG over the pair's prefix vocabulary is never built.
type lazyLocalizer struct {
	enc    *symbolic.RouteEncoding
	c1, c2 *ir.Config
	loc    *headerloc.RouteLocalizer
}

func (l *lazyLocalizer) get() *headerloc.RouteLocalizer {
	if l.loc == nil {
		l.loc = headerloc.NewRouteLocalizer(l.enc, l.c1, l.c2)
	}
	return l.loc
}

type rmTaskResult struct {
	diffs []localizedRouteDiff
	err   error
}

// taskFailure converts a recovered panic value into the task's structured
// error: a bdd.Abort becomes ErrBudget or ErrCanceled per its cause, any
// other panic becomes ErrInternal carrying the goroutine stack. Both get
// the chain's configuration-file/line provenance.
func taskFailure(r any, c1, c2 *ir.Config, t rmTask) error {
	file, line := chainProvenance(c1, c2, t.names1, t.names2)
	if a, ok := r.(bdd.Abort); ok {
		return &PairError{Pair: t.label(), Kind: abortKind(a), File: file, Line: line, Err: a.Err}
	}
	return &PairError{
		Pair: t.label(), Kind: ErrInternal, File: file, Line: line,
		Err: fmt.Errorf("panic: %v", r), Stack: string(debug.Stack()),
	}
}

// buildFailure classifies a panic recovered while constructing a
// worker's route encoding (vocabulary atomization + WellFormed build).
func buildFailure(r any, c1 *ir.Config) error {
	file := ""
	if c1 != nil {
		file = c1.File
	}
	if a, ok := r.(bdd.Abort); ok {
		return &PairError{Pair: "route-encoding", Kind: abortKind(a), File: file, Err: a.Err}
	}
	return &PairError{
		Pair: "route-encoding", Kind: ErrInternal, File: file,
		Err: fmt.Errorf("panic: %v", r), Stack: string(debug.Stack()),
	}
}

// guardedRouteMapTask runs one chain comparison under the engine's fault
// guard: a cancellation check on entry, a fresh budget baseline, and a
// recover that converts any kernel abort or crash into the task's error.
// The factory and encoding remain consistent after an abort unwind (all
// memo tables store only fully-built entries), so the caller may keep
// using them for sibling tasks — only an ErrInternal panic leaves state
// unknown.
func guardedRouteMapTask(ctx context.Context, enc *symbolic.RouteEncoding, loc *lazyLocalizer, pc *PolicyCache, c1, c2 *ir.Config, t rmTask, opts Options, parent *obs.Span) (res rmTaskResult) {
	defer func() {
		if r := recover(); r != nil {
			res = rmTaskResult{err: taskFailure(r, c1, c2, t)}
		}
	}()
	if hook := TestTaskHook; hook != nil {
		hook(t.names1, t.names2)
	}
	if err := ctxErr(ctx); err != nil {
		file, line := chainProvenance(c1, c2, t.names1, t.names2)
		return rmTaskResult{err: &PairError{Pair: t.label(), Kind: ErrCanceled, File: file, Line: line, Err: err}}
	}
	enc.F.BeginWork()
	return runRouteMapTask(enc, loc, pc, c1, c2, t, opts, parent)
}

// isInternalFailure reports whether a task error means the worker's
// symbolic state can no longer be trusted (an arbitrary panic, as opposed
// to a controlled kernel abort).
func isInternalFailure(err error) bool {
	return ErrKind(err) == "internal"
}

// runRouteMapTasks executes the unique chain comparisons on a pool of
// workers. Each worker builds its own encoding over the configuration
// pair (the construction is deterministic, so every worker sees the same
// variable order and atom vocabulary) and reuses it — and its growing op
// caches — across all tasks it pulls. Task failures (cancellation,
// budget, crash) land in the task's result slot; healthy siblings are
// unaffected.
func runRouteMapTasks(ctx context.Context, c1, c2 *ir.Config, tasks []rmTask, opts Options, stats *ComponentStats, span *obs.Span) []rmTaskResult {
	results := make([]rmTaskResult, len(tasks))
	workers := opts.workerCount(len(tasks))
	stats.Workers = workers

	// A sequential run with a caller-provided PolicyCache is the
	// cross-pair path: the cache's encoding and compiled chains persist
	// across Diff calls, so a DiffAll worker re-encodes each device's
	// policies once, not once per pair.
	if workers == 1 && opts.PolicyCache != nil {
		runRouteMapTasksCached(ctx, c1, c2, tasks, opts, stats, span, results)
		return results
	}

	// Fewer unique comparisons than workers and at least one oversized
	// chain: inter-pair fan-out would leave workers idle, so partition
	// each comparison itself across prefix regions (see stripe.go).
	if stripes := opts.routeMapStripes(c1, c2, tasks); stripes > 1 {
		runRouteMapTasksStriped(ctx, c1, c2, tasks, stripes, opts, stats, span, results)
		return results
	}

	var mu sync.Mutex // guards stats aggregation across workers
	worker := func(w int, jobs <-chan int) {
		var wsp *obs.Span
		if span != nil {
			wsp = span.Child("worker", obs.Int("worker", w))
		}
		var enc *symbolic.RouteEncoding
		var loc *lazyLocalizer
		var pc *PolicyCache
		var buildErr error
		// build constructs the worker's symbolic state under the same
		// guard as the tasks: a budget or cancellation abort during
		// vocabulary encoding fails the tasks, not the process.
		build := func() {
			defer func() {
				if r := recover(); r != nil {
					buildErr = buildFailure(r, c1)
					enc, loc, pc = nil, nil, nil
				}
			}()
			e := symbolic.NewRouteEncodingInto(newArmedFactory(ctx, opts), c1, c2)
			loc = &lazyLocalizer{enc: e, c1: c1, c2: c2}
			pc = newWorkerPolicyCache(e)
			enc = e
		}
		var wait, busy time.Duration
		var chainHits, chainMisses int
		mark := time.Now()
		for i := range jobs {
			now := time.Now()
			wait += now.Sub(mark)
			if enc == nil && buildErr == nil {
				build()
			}
			if buildErr != nil {
				results[i] = rmTaskResult{err: buildErr}
			} else {
				results[i] = guardedRouteMapTask(ctx, enc, loc, pc, c1, c2, tasks[i], opts, wsp)
				if isInternalFailure(results[i].err) {
					// Unknown crash: the factory's invariants are suspect.
					// Account for what it did, then discard it — the next
					// task rebuilds on a fresh factory from the pool.
					st := enc.F.Stats()
					chainHits += pc.ChainHits
					chainMisses += pc.ChainMisses
					mu.Lock()
					stats.BDDNodes += st.Nodes
					stats.CacheHits += st.CacheHits
					stats.CacheMisses += st.CacheMisses
					mu.Unlock()
					enc, loc, pc = nil, nil, nil
				}
			}
			mark = time.Now()
			busy += mark.Sub(now)
		}
		wait += time.Since(mark)
		if pc != nil {
			chainHits += pc.ChainHits
			chainMisses += pc.ChainMisses
		}
		if wsp != nil {
			attrs := []obs.Attr{obs.Dur("queueWait", wait), obs.Dur("compute", busy),
				obs.Int("chainHits", chainHits)}
			if enc != nil {
				attrs = append(attrs, obs.Int("bddNodes", enc.F.Stats().Nodes))
			}
			wsp.SetAttrs(attrs...)
			wsp.End()
		}
		opts.recordWorker("routemap", wait, busy)
		opts.recordPolicyCache("", chainHits, chainMisses, 0)
		if enc != nil {
			st := enc.F.Stats()
			opts.recordMemo(enc.Memo())
			mu.Lock()
			stats.BDDNodes += st.Nodes
			stats.CacheHits += st.CacheHits
			stats.CacheMisses += st.CacheMisses
			stats.PolicyCacheHits += chainHits
			mu.Unlock()
			putFactory(enc.F)
		} else {
			mu.Lock()
			stats.PolicyCacheHits += chainHits
			mu.Unlock()
		}
	}

	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			worker(w, jobs)
		}(w)
	}
	for i := range tasks {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return results
}

// runRouteMapTasksCached is the sequential cross-pair path of
// runRouteMapTasks: one goroutine, one long-lived PolicyCache whose
// factory (and its counters) outlive this Diff call. Stats are charged as
// deltas against the entry snapshot, so per-pair numbers never re-count
// earlier pairs; an encoding rebuild Resets the factory (zeroing the
// counters), so the baseline falls back to the empty arena.
func runRouteMapTasksCached(ctx context.Context, c1, c2 *ir.Config, tasks []rmTask, opts Options, stats *ComponentStats, span *obs.Span, results []rmTaskResult) {
	pc := opts.PolicyCache
	var st0 bdd.Stats
	if pc.enc != nil {
		st0 = pc.enc.F.Stats()
	}
	rebuilds0, hits0, misses0 := pc.Rebuilds, pc.ChainHits, pc.ChainMisses
	memo0 := symbolic.MemoStats{}
	if pc.enc != nil {
		memo0 = pc.enc.Memo()
	}

	var enc *symbolic.RouteEncoding
	var buildErr error
	func() {
		defer func() {
			if r := recover(); r != nil {
				buildErr = buildFailure(r, c1)
			}
		}()
		enc = pc.encodingFor(ctx, c1, c2, opts)
	}()
	if buildErr != nil {
		for i := range tasks {
			results[i] = rmTaskResult{err: buildErr}
		}
		pc.invalidate()
		return
	}
	if pc.Rebuilds != rebuilds0 {
		st0 = bdd.Stats{Nodes: 1}
		memo0 = symbolic.MemoStats{}
	}
	loc := &lazyLocalizer{enc: enc, c1: c1, c2: c2}
	poisoned := false
	for i := range tasks {
		results[i] = guardedRouteMapTask(ctx, enc, loc, pc, c1, c2, tasks[i], opts, span)
		if err := results[i].err; err != nil && ErrKind(err) != "canceled" {
			// Budget garbage accumulates in the arena; an unknown panic
			// leaves state unverified. Either way the cache must rebuild
			// before its next Diff call.
			poisoned = true
			if isInternalFailure(err) {
				// Fail the remaining tasks rather than trust the state.
				for j := i + 1; j < len(tasks); j++ {
					results[j] = results[i]
				}
				break
			}
		}
	}
	d := enc.F.Stats().Delta(st0)
	enc.F.ClearInterrupt() // the cache factory outlives this ctx
	stats.BDDNodes += d.Nodes
	stats.CacheHits += d.CacheHits
	stats.CacheMisses += d.CacheMisses
	stats.PolicyCacheHits += pc.ChainHits - hits0
	opts.recordPolicyCache(pc.fp, pc.ChainHits-hits0, pc.ChainMisses-misses0, pc.Rebuilds-rebuilds0)
	memo := enc.Memo()
	opts.recordMemo(symbolic.MemoStats{
		RangeHits: memo.RangeHits - memo0.RangeHits, RangeMisses: memo.RangeMisses - memo0.RangeMisses,
		ListHits: memo.ListHits - memo0.ListHits, ListMisses: memo.ListMisses - memo0.ListMisses,
	})
	if poisoned {
		pc.invalidate()
	}
}

// runRouteMapTask compares one resolved chain pair and localizes every
// difference while still on the worker's own factory. Chain compilation
// goes through the worker's policy cache. The parent span receives one
// "chain-pair" child covering compile + compare + localize, annotated
// with the chain names and whether the compilations were cache recalls.
func runRouteMapTask(enc *symbolic.RouteEncoding, loc *lazyLocalizer, pc *PolicyCache, c1, c2 *ir.Config, t rmTask, opts Options, parent *obs.Span) (res rmTaskResult) {
	var tsp *obs.Span
	if parent != nil {
		tsp = parent.Child("chain-pair",
			obs.Str("chain1", chainName(t.names1)), obs.Str("chain2", chainName(t.names2)))
		hits0 := pc.ChainHits
		defer func() {
			tsp.SetAttrs(obs.Int("cachedChains", pc.ChainHits-hits0), obs.Int("diffs", len(res.diffs)))
			tsp.End()
		}()
	}
	paths1, err := pc.pathsFor(c1, t.names1)
	if err != nil {
		return rmTaskResult{err: err}
	}
	paths2, err := pc.pathsFor(c2, t.names2)
	if err != nil {
		return rmTaskResult{err: err}
	}
	diffs := semdiff.DiffRouteMapPaths(enc, paths1, paths2)
	if len(diffs) == 0 {
		return rmTaskResult{}
	}
	l := loc.get()
	out := make([]localizedRouteDiff, 0, len(diffs))
	for _, d := range diffs {
		out = append(out, localizeRouteDiff(l, d, opts, sideKey{idx: d.Index1}, sideKey{idx: d.Index2}))
	}
	return rmTaskResult{diffs: out}
}
