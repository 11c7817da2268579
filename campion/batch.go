package campion

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/obs"
)

// ConfigPair is one named pair of parsed configurations in a batch.
type ConfigPair struct {
	Name             string
	Config1, Config2 *Config
}

// NamedConfig attaches a display name (typically the file or host name)
// to a parsed configuration, for the all-pairs workloads.
type NamedConfig struct {
	Name   string
	Config *Config
}

// BatchOptions configures a DiffBatch / DiffAll run.
type BatchOptions struct {
	// Options configures each individual comparison. When Workers is 0
	// (the default), each pair is compared sequentially and the batch
	// fans out across pairs instead — the right default, since pair-level
	// parallelism has no synchronization points at all. Set
	// Options.Workers explicitly to also parallelize inside each pair.
	Options
	// BatchWorkers bounds how many pairs are compared concurrently;
	// 0 means one per CPU.
	BatchWorkers int
	// NoPolicyCache disables the per-worker compiled-policy cache that
	// DiffBatch installs for sequential inner comparisons. With the cache
	// each batch worker re-encodes a device's route maps once across all
	// the pairs it is assigned instead of once per pair; reports are
	// byte-identical either way. The switch exists for benchmarking and
	// the determinism tests.
	NoPolicyCache bool
	// RunLog, when non-nil, records this batch as one run — pair counts,
	// differences, and errors update live, so `campion -serve`'s /runs
	// endpoint can watch a long audit progress.
	RunLog *obs.RunLog
	// RunName labels the run in the RunLog (default "batch").
	RunName string
	// CacheDir, when non-empty, persists finished pair reports (keyed by
	// the two devices' semantic hashes and an options fingerprint) under
	// this directory, so repeated audits skip unchanged comparisons
	// across process restarts. DiffAll additionally clusters devices by
	// semantic hash and diffs only class representatives (see DiffFleet).
	// Reports are byte-identical with and without a cache.
	CacheDir string
	// OnResult, when non-nil, is invoked once per pair the moment its
	// result lands — from whichever batch worker finished it (or from the
	// feeder, for pairs marked canceled before dispatch), so it must be
	// safe for concurrent use. i is the pair's input index. The fleet
	// engine uses it to advance live progress as representative pairs
	// resolve; the slice returned by DiffBatch is unaffected.
	OnResult func(i int, res BatchResult)
}

// BatchResult is the outcome of one pair in a batch: either a report or
// a per-pair error. Errors are isolated — one failing pair never aborts
// the others. Err, when non-nil, is a *PairError; classify it with
// errors.Is against ErrParse / ErrCanceled / ErrBudget / ErrInternal,
// or label it with ErrKind.
type BatchResult struct {
	Name   string
	Report *Report
	Err    error
}

// batchCtxErr mirrors core's deadline-aware context check: a deadline
// that has already passed counts as exceeded even before the context's
// timer fires, so tiny -timeout values behave deterministically.
func batchCtxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
		return context.DeadlineExceeded
	}
	return nil
}

// pairError wraps a cause as this pair's structured failure, unless it
// already is one (core's guarded workers hand back *PairError with
// file/line provenance — keep those intact).
func pairError(name string, kind, cause error) error {
	var pe *PairError
	if errors.As(cause, &pe) {
		return cause
	}
	return &PairError{Pair: name, Kind: kind, Err: cause}
}

// DiffBatch compares every configuration pair on a bounded worker pool
// and returns the results in input order, regardless of completion order.
//
// Each pair is an independent comparison with its own symbolic state, so
// pairs scale linearly with cores. The context is threaded into every
// comparison (polled from inside the BDD kernels), so cancellation both
// skips unstarted pairs and interrupts in-flight ones; all affected
// pairs carry an ErrCanceled *PairError and DiffBatch returns ctx's
// error alongside the partial results. Per-pair failures — parse,
// cancellation, budget (Options.MaxNodes / Options.Timeout), or an
// isolated crash — land in the pair's BatchResult as *PairError, never
// abort the batch, and leave the returned error nil.
func DiffBatch(ctx context.Context, pairs []ConfigPair, opts BatchOptions) ([]BatchResult, error) {
	jobs := make([][2]int, len(pairs))
	for i := range jobs {
		jobs[i] = [2]int{i, -1}
	}
	results, _, _, err := diffBatch(ctx, pairs, jobs, opts, nil)
	return results, err
}

// diffBatch is DiffBatch over explicit jobs. A job {i, -1} diffs pair i;
// a job {i, m} diffs pair i and its mirror m — pair m is pair i with the
// sides swapped — in one core.DiffBoth pass. When that pass fails or
// cannot derive the reverse, pair m is diffed on its own, so its result
// (error labels and provenance included) is exactly a lone diff's.
// mirrored[m] reports that pair m's report came from a joint pass; its
// journal pair event carries Op "mirror". Every pair appears in exactly
// one job.
//
// memo, when non-nil, is the store whose component memo the pairs'
// diffs consult (see memo.go); with opts.CacheDir set, the store opened
// there serves instead. comps counts each successful pair's semantic
// components, recalled or computed.
func diffBatch(ctx context.Context, pairs []ConfigPair, jobList [][2]int, opts BatchOptions, memo *fleet.Store) (results []BatchResult, mirrored []bool, comps componentCounts, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	results = make([]BatchResult, len(pairs))
	mirrored = make([]bool, len(pairs))
	workers := opts.BatchWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobList) {
		workers = len(jobList)
	}
	if len(pairs) == 0 {
		return results, mirrored, comps, ctx.Err()
	}
	inner := opts.Options
	if inner.Workers == 0 {
		// Don't oversubscribe: batch-level fan-out already saturates the
		// CPUs, so each pair runs sequentially unless asked otherwise.
		inner.Workers = 1
	}
	// A PolicyCache is single-goroutine state; a caller-supplied one
	// cannot be shared across batch workers, so it is replaced by one
	// private cache per worker below.
	inner.PolicyCache = nil

	// Persistent report cache: hash each distinct config once (memoized
	// by pointer — parsed configs are immutable), then serve finished
	// reports from disk and store fresh ones back.
	var fstore *fleet.Store
	var optsFP string
	var hashMemo sync.Map // *ir.Config -> string
	if opts.CacheDir != "" {
		var err error
		if fstore, err = fleet.OpenStore(opts.CacheDir); err != nil {
			return nil, nil, comps, err
		}
		memo = fstore
	}
	var cm *componentMemo
	if memo != nil {
		optsFP = fleet.OptionsFingerprint(inner)
		cm = &componentMemo{store: memo, optsFP: optsFP}
	}
	var compsMu sync.Mutex

	runName := opts.RunName
	if runName == "" {
		runName = "batch"
	}
	run := opts.RunLog.Start(runName, len(pairs))
	defer run.Finish()
	var bsp *obs.Span
	if inner.TraceParent != nil {
		bsp = inner.TraceParent.Child("batch", obs.Int("pairs", len(pairs)))
	} else if inner.Tracer != nil {
		bsp = inner.Tracer.Root("batch",
			obs.Str("name", runName), obs.Int("pairs", len(pairs)), obs.Int("workers", workers))
	}
	defer bsp.End()
	var pairLatency *obs.Histogram
	var pairsDone *obs.Counter
	if inner.Metrics != nil {
		pairLatency = inner.Metrics.Histogram("campion_pair_duration_nanoseconds",
			"wall time of one pair comparison in a batch")
		pairsDone = inner.Metrics.Counter("campion_pairs_total", "pair comparisons completed")
	}

	jobs := make(chan [2]int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			inner := inner
			if inner.Workers == 1 && !opts.NoPolicyCache {
				inner.PolicyCache = core.NewPolicyCache()
				defer inner.PolicyCache.Release()
			}
			var hasher *fleet.Hasher
			defer func() { fleet.PutHasher(hasher) }()
			var counts componentCounts
			defer func() {
				compsMu.Lock()
				comps.add(counts)
				compsMu.Unlock()
			}()
			hashFor := func(cfg *Config) string {
				if h, ok := hashMemo.Load(cfg); ok {
					return h.(string)
				}
				if hasher == nil {
					hasher = fleet.GetHasher()
				}
				h, _ := hasher.DeviceHash(cfg)
				actual, _ := hashMemo.LoadOrStore(cfg, h)
				return actual.(string)
			}
			var wsp *obs.Span
			if bsp != nil {
				wsp = bsp.Child("worker", obs.Int("worker", w))
			}
			// diffPair computes pair i's result, from the store when it
			// holds one ("cached"). A non-nil rev asks for a joint pass
			// with the pair named mirror, which leaves the reverse report
			// there.
			diffPair := func(i int, inner core.Options, rev **Report, mirror string) (BatchResult, string) {
				p := pairs[i]
				res := BatchResult{Name: p.Name}
				switch {
				case batchCtxErr(ctx) != nil:
					res.Err = pairError(p.Name, ErrCanceled, batchCtxErr(ctx))
				case p.Config1 == nil || p.Config2 == nil:
					res.Err = &PairError{Pair: p.Name, Kind: ErrParse,
						Err: fmt.Errorf("missing configuration")}
				default:
					var h1, h2 string
					if fstore != nil {
						h1, h2 = hashFor(p.Config1), hashFor(p.Config2)
						if rep, ok := fstore.GetReport(h1, h2, optsFP); ok {
							res.Report = fleet.RespanReport(rep, p.Config1, p.Config2)
							return res, "cached"
						}
					}
					var back *Report
					var n componentCounts
					res.Report, back, n, res.Err = cm.diff(ctx, p.Config1, p.Config2, inner, rev != nil, mirror)
					counts.add(n)
					if rev != nil {
						*rev = back
					}
					if fstore != nil && res.Err == nil {
						fstore.PutReport(h1, h2, optsFP, res.Report)
					}
				}
				return res, ""
			}
			// record runs pair i under its span and journal label, then
			// books its result.
			record := func(i int, compute func(inner core.Options) (BatchResult, string)) {
				start := time.Now()
				p := pairs[i]
				var psp *obs.Span
				if wsp != nil {
					psp = wsp.Child("pair", obs.Str("pair", p.Name))
				}
				inner := inner
				inner.TraceParent = psp
				inner.JournalPair = p.Name
				res, op := compute(inner)
				results[i] = res
				diffs := 0
				var nodes int64
				if res.Report != nil {
					diffs = res.Report.TotalDifferences()
					for _, st := range res.Report.Stats {
						nodes += int64(st.BDDNodes)
					}
				}
				kind := ErrKind(res.Err)
				if psp != nil {
					psp.SetAttrs(obs.Int("diffs", diffs))
					if kind != "" {
						psp.SetAttrs(obs.Str("error", kind))
					}
					psp.End()
				}
				run.PairDone(diffs, res.Err != nil)
				if res.Err != nil {
					run.PairFailed(kind)
				}
				end := time.Now()
				inner.Journal.Emit(obs.Event{Type: obs.EvPair, Pair: p.Name, Op: op,
					Dur: int64(end.Sub(start)), Diffs: diffs, Nodes: nodes, Err: kind})
				if opts.OnResult != nil {
					opts.OnResult(i, res)
				}
				pairLatency.Observe(int64(end.Sub(start)))
				pairsDone.Inc()
				if res.Err != nil && inner.Metrics != nil {
					inner.Metrics.Counter("campion_pair_errors_total",
						"pair comparisons that errored, by failure kind",
						obs.L("kind", kind)).Inc()
				}
			}
			var wait, busy time.Duration
			mark := time.Now()
			for job := range jobs {
				start := time.Now()
				wait += start.Sub(mark)
				i, m := job[0], job[1]
				var rev *Report
				record(i, func(inner core.Options) (BatchResult, string) {
					if m < 0 {
						return diffPair(i, inner, nil, "")
					}
					return diffPair(i, inner, &rev, pairs[m].Name)
				})
				if m >= 0 {
					record(m, func(inner core.Options) (BatchResult, string) {
						if rev == nil {
							return diffPair(m, inner, nil, "")
						}
						mirrored[m] = true
						p := pairs[m]
						if fstore != nil {
							fstore.PutReport(hashFor(p.Config1), hashFor(p.Config2), optsFP, rev)
						}
						return BatchResult{Name: p.Name, Report: rev}, "mirror"
					})
				}
				mark = time.Now()
				busy += mark.Sub(start)
			}
			wait += time.Since(mark)
			if wsp != nil {
				wsp.SetAttrs(obs.Dur("queueWait", wait), obs.Dur("compute", busy))
				wsp.End()
			}
			if inner.Metrics != nil {
				pool := obs.L("pool", "batch")
				inner.Metrics.Counter(core.MetricWorkerWait,
					"time workers spent blocked on the job queue", pool).Add(uint64(wait))
				inner.Metrics.Counter(core.MetricWorkerBusy,
					"time workers spent computing", pool).Add(uint64(busy))
			}
		}(w)
	}
feed:
	for k, job := range jobList {
		select {
		case jobs <- job:
		case <-ctx.Done():
			// Mark everything not yet handed out; the workers drain the
			// closed channel below. Kind bookkeeping matches the worker
			// path so the run summary counts these pairs too.
			for _, job := range jobList[k:] {
				for _, j := range job {
					if j < 0 {
						continue
					}
					results[j] = BatchResult{Name: pairs[j].Name,
						Err: pairError(pairs[j].Name, ErrCanceled, ctx.Err())}
					run.PairDone(0, true)
					run.PairFailed("canceled")
					inner.Journal.Emit(obs.Event{Type: obs.EvPair,
						Pair: pairs[j].Name, Err: "canceled"})
					if opts.OnResult != nil {
						opts.OnResult(j, results[j])
					}
				}
			}
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	return results, mirrored, comps, batchCtxErr(ctx)
}

// DiffAll compares every unordered pair of the given configurations —
// the fleet-audit workload ("are any two of these routers configured
// differently?"). Pair i<j is named "NameI vs NameJ"; results arrive in
// lexicographic (i, j) order. It is DiffBatch over the n·(n−1)/2 pairs.
//
// With CacheDir set, DiffAll routes through DiffFleet: devices are
// clustered by semantic hash, only class representatives are diffed
// (with persisted reports reused across runs), and the results are
// expanded back to every pair — byte-identical to the naive path.
func DiffAll(ctx context.Context, cfgs []NamedConfig, opts BatchOptions) ([]BatchResult, error) {
	if opts.CacheDir != "" {
		devices := make([]FleetDevice, len(cfgs))
		for i, c := range cfgs {
			devices[i] = FleetDevice{Name: c.Name, Config: c.Config}
		}
		fr, err := DiffFleet(ctx, devices, FleetOptions{
			BatchOptions: opts, CacheDir: opts.CacheDir,
		})
		if fr == nil {
			return nil, err
		}
		return fr.Results(), err
	}
	var pairs []ConfigPair
	for i := 0; i < len(cfgs); i++ {
		for j := i + 1; j < len(cfgs); j++ {
			pairs = append(pairs, ConfigPair{
				Name:    fmt.Sprintf("%s vs %s", cfgs[i].Name, cfgs[j].Name),
				Config1: cfgs[i].Config,
				Config2: cfgs[j].Config,
			})
		}
	}
	if opts.RunName == "" {
		opts.RunName = fmt.Sprintf("all-pairs (%d configs)", len(cfgs))
	}
	return DiffBatch(ctx, pairs, opts)
}
