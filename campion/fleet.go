package campion

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/ir"
	"repro/internal/obs"
)

// FleetStore is the persistent cache under a -cache-dir: device-hash
// entries (skip re-parsing unchanged files) and finished pair reports
// keyed by (hashA, hashB, options fingerprint). Safe for concurrent use
// by goroutines and by separate processes sharing the directory
// (last-writer-wins; see internal/fleet).
type FleetStore = fleet.Store

// OpenFleetStore opens (creating if needed) a persistent cache.
func OpenFleetStore(dir string) (*FleetStore, error) { return fleet.OpenStore(dir) }

// OpenMemFleetStore returns a cache with no backing directory: entries
// live in memory and die with the process. It is what a long-lived
// daemon wants when the operator has not asked for cross-restart
// persistence — every audit after the first is served from RAM. For a
// disk-backed store with the same hot-path behavior, open it with
// OpenFleetStore and call EnableMemo.
func OpenMemFleetStore() *FleetStore { return fleet.OpenMemStore() }

// ContentSum fingerprints raw configuration bytes for FleetDevice:
// supplying it lets cached hash entries stand in for parsing entirely.
func ContentSum(data []byte) string { return fleet.ContentSum(data) }

// FleetDevice is one device of a fleet audit. Exactly one of Config or
// Load supplies the parsed configuration; Load lets warm cache runs skip
// parsing entirely when ContentSum finds a stored hash entry.
type FleetDevice struct {
	// Name labels the device in pair names ("Name1 vs Name2").
	Name string
	// Config is the parsed configuration, when the caller already has it.
	Config *Config
	// Load parses the configuration on demand. It is called at most once
	// per DiffFleet run, and only when the device's semantic hash is not
	// already known (cold cache, or the device is a class representative
	// that must actually be diffed).
	Load func() (*Config, error)
	// ContentSum, when set, is fleet.ContentSum of the raw configuration
	// bytes; with a cache it keys the persisted hash entry.
	ContentSum string
	// Hash, when set, is a precomputed semantic hash (skips hashing).
	Hash string
	// Hostname and File override the rendering identity when the
	// configuration itself is never loaded (warm cache). They are filled
	// from the configuration or the cache when left empty.
	Hostname string
	File     string
}

// FleetOptions configures a DiffFleet run.
type FleetOptions struct {
	BatchOptions
	// CacheDir, when non-empty, persists device hashes and pair reports
	// across runs. Store may be supplied instead to share an open store.
	CacheDir string
	// Store is an already-open persistent cache; takes precedence over
	// CacheDir.
	Store *FleetStore
	// Paranoid additionally verifies every non-representative class
	// member against its representative with a full diff — a hash
	// collision check. It re-parses every device, so it forfeits the
	// warm-cache parse savings by design.
	Paranoid bool
	// NoCluster disables semantic clustering: every device is its own
	// class, so all pairs are diffed (the persistent report cache still
	// applies). For measurement and debugging.
	NoCluster bool
	// MaxCachedReports bounds the persistent report entries kept on
	// disk; 0 means unlimited.
	MaxCachedReports int
}

// FleetClass is one semantic equivalence class: devices whose
// configurations are interchangeable in any comparison (equal semantic
// hashes). Members are device indices in ascending order; Members[0] is
// the class representative.
type FleetClass struct {
	Hash    string
	Members []int
}

// FleetStats summarizes what a DiffFleet run actually did.
type FleetStats struct {
	// Devices is the fleet size; Failed counts devices whose
	// configurations could not be loaded or hashed.
	Devices, Failed int
	// Classes is the number of semantic equivalence classes among the
	// live devices.
	Classes int
	// RepPairs is the number of ordered class-representative pairs the
	// run needed; RepComputed of those were actually diffed (the rest
	// came from the persistent cache).
	RepPairs, RepComputed int
	// RepMirrored counts the computed pairs whose report came from the
	// joint pass of their mirror: when both (a, b) and (b, a) are missing,
	// one core.DiffBoth pass yields both. It is a subset of RepComputed.
	RepMirrored int
	// ComponentsRecalled and ComponentsComputed split the semantic
	// components (route-maps, ACLs) of the computed rep pairs that
	// succeeded: served from the store's component memo, or compared by
	// core. Each counts per rep pair and per component, so a joint pass
	// that computes a component for both orientations counts it twice.
	// Without a store nothing is recalled.
	ComponentsRecalled, ComponentsComputed int
	// ExpandedPairs is the number of member pairs the results cover —
	// the naive all-pairs count.
	ExpandedPairs int
	// ParsesAvoided counts devices whose parse was skipped because a
	// cached hash entry matched their raw bytes; HashFallbacks counts
	// devices hashed with the intensional fallback.
	ParsesAvoided, HashFallbacks int
	// Cache is the persistent store's counter snapshot (zero without a
	// cache).
	Cache fleet.StoreStats
}

// FleetResult holds a finished fleet audit: the classes, the
// representative reports, and the machinery to expand them to all member
// pairs on demand — materializing half a million BatchResults up front
// would defeat the point at fleet scale.
type FleetResult struct {
	Devices []FleetDevice
	Classes []FleetClass
	Stats   FleetStats

	// DeviceErrs[i] is non-nil when device i failed to load or hash;
	// its pairs expand to ErrParse results.
	DeviceErrs []error

	classOf  []int // device index -> class index; -1 for failed devices
	render   []*ir.Config
	repRep   map[[2]int]*core.Report // ordered class pair -> report
	repErr   map[[2]int]error
	liveSize int
}

// DiffFleet audits a fleet: hash every device, cluster by semantic hash,
// diff only class representatives (reusing persisted reports when a
// cache is configured), and expose the results expanded to every member
// pair — byte-identical to running DiffAll naively over the whole fleet.
//
// Per-pair failures land in the expanded results as *PairError, exactly
// as with DiffBatch; the returned error is non-nil only for setup
// failures (unusable cache directory), context cancellation, or a
// Paranoid-mode hash-collision detection.
func DiffFleet(ctx context.Context, devices []FleetDevice, opts FleetOptions) (*FleetResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	store := opts.Store
	if store == nil && opts.CacheDir != "" {
		var err error
		if store, err = fleet.OpenStore(opts.CacheDir); err != nil {
			return nil, err
		}
	}
	if store != nil && opts.MaxCachedReports > 0 {
		store.SetMaxReports(opts.MaxCachedReports)
	}
	// A shared Store accumulates counters across runs; report this run's
	// activity as a delta against its state at entry.
	var statsBefore fleet.StoreStats
	if store != nil {
		statsBefore = store.Stats()
	}

	r := &FleetResult{
		Devices:    append([]FleetDevice(nil), devices...),
		DeviceErrs: make([]error, len(devices)),
		classOf:    make([]int, len(devices)),
		render:     make([]*ir.Config, len(devices)),
		repRep:     map[[2]int]*core.Report{},
		repErr:     map[[2]int]error{},
	}
	r.Stats.Devices = len(devices)

	// Live publication: instruments resolved once, advanced atomically as
	// each phase progresses, so mid-run /metrics scrapes are meaningful.
	fm := newFleetMetrics(opts, opts.Journal)
	fm.runsActive.Add(1)
	defer fm.runsActive.Add(-1)
	fm.devices.Set(int64(len(devices)))
	if store != nil {
		store.SetObserver(fm.cacheEvent)
		defer store.SetObserver(nil)
	}

	// The fleet-level run entry covers every member pair; coverage is
	// credited in blocks as clustering and representative pairs resolve,
	// so /runs shows live progress against the naive all-pairs total.
	frun := opts.RunLog.Start(fmt.Sprintf("fleet (%d devices)", len(devices)),
		len(devices)*(len(devices)-1)/2)
	defer frun.Finish()

	var fsp *obs.Span
	if opts.TraceParent != nil {
		fsp = opts.TraceParent.Child("fleet", obs.Int("devices", len(devices)))
	} else if opts.Tracer != nil {
		fsp = opts.Tracer.Root("fleet", obs.Int("devices", len(devices)))
	}
	defer fsp.End()

	phase := func(name string, total int64, sp **obs.Span) time.Time {
		frun.SetPhase(name)
		*sp = fsp.Child(name)
		opts.Journal.Emit(obs.Event{Type: obs.EvPhaseStart, Phase: name, Total: total})
		return time.Now()
	}
	endPhase := func(name string, start time.Time, sp *obs.Span, n int64) {
		sp.End()
		opts.Journal.Emit(obs.Event{Type: obs.EvPhaseEnd, Phase: name,
			Dur: int64(time.Since(start)), N: n})
	}

	var sp *obs.Span
	t := phase("hash", int64(len(devices)), &sp)
	resolveDevices(ctx, r, store, &opts, fm)
	sp.SetAttrs(obs.Int("failed", r.Stats.Failed), obs.Int("parsesAvoided", r.Stats.ParsesAvoided))
	endPhase("hash", t, sp, int64(len(devices)))

	t = phase("cluster", 0, &sp)
	cluster(r, opts.NoCluster)
	fm.classes.Set(int64(r.Stats.Classes))
	opts.Journal.Emit(obs.Event{Type: obs.EvCluster,
		N: int64(r.Stats.Classes), Total: int64(r.liveSize)})
	for ci, cl := range r.Classes {
		opts.Journal.Emit(obs.Event{Type: obs.EvClass, Class: ci + 1,
			Device: r.Devices[cl.Members[0]].Name, N: int64(len(cl.Members))})
	}
	// Clustering already settles two blocks of member-pair coverage:
	// same-class pairs (equivalent by construction) and pairs touching a
	// failed device (they expand to that device's error).
	var same int64
	for _, cl := range r.Classes {
		m := int64(len(cl.Members))
		same += m * (m - 1) / 2
	}
	n, live := int64(len(r.Devices)), int64(r.liveSize)
	failedPairs := n*(n-1)/2 - live*(live-1)/2
	frun.Advance(same, 0, 0)
	frun.Advance(failedPairs, 0, failedPairs)
	sp.SetAttrs(obs.Int("classes", r.Stats.Classes))
	endPhase("cluster", t, sp, int64(r.Stats.Classes))

	optsFP := fleet.OptionsFingerprint(opts.Options)
	t = phase("rep-pairs", 0, &sp)
	err := diffRepresentatives(ctx, r, store, opts, optsFP, fm, frun, sp)
	endPhase("rep-pairs", t, sp, int64(r.Stats.RepPairs))
	if err != nil {
		// Setup failure or cancellation: the incrementally published
		// counters stand as-is (matching the old behavior of not flushing),
		// and the journal keeps everything up to the failing phase.
		return r, err
	}

	var collision string
	if opts.Paranoid {
		t = phase("paranoid", 0, &sp)
		collision, err = verifyParanoid(ctx, r, opts, sp)
		endPhase("paranoid", t, sp, 0)
	}

	if store != nil {
		store.EvictNow()
		after := store.Stats()
		r.Stats.Cache = fleet.StoreStats{
			ReportHits:   after.ReportHits - statsBefore.ReportHits,
			ReportMisses: after.ReportMisses - statsBefore.ReportMisses,
			HashHits:     after.HashHits - statsBefore.HashHits,
			HashMisses:   after.HashMisses - statsBefore.HashMisses,
			Evictions:    after.Evictions - statsBefore.Evictions,
			Corrupt:      after.Corrupt - statsBefore.Corrupt,
			Digests:      after.Digests - statsBefore.Digests,
		}
	}
	fm.finish(r)
	if err != nil {
		return r, err
	}
	if collision != "" {
		return r, fmt.Errorf("paranoid verification failed: %s (semantic hash collision or hasher bug)", collision)
	}
	return r, batchCtxErr(ctx)
}

// resolveDevices fills in each device's semantic hash, hostname, and
// rendering identity — from the caller, the persistent cache, or by
// loading and hashing the configuration. Runs on a worker pool; each
// worker owns a private Hasher.
func resolveDevices(ctx context.Context, r *FleetResult, store *fleet.Store, opts *FleetOptions, fm *fleetMetrics) {
	workers := opts.BatchWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(r.Devices) {
		workers = len(r.Devices)
	}
	if workers < 1 {
		workers = 1
	}
	var mu sync.Mutex // guards the shared Stats fields
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var hasher *fleet.Hasher
			defer func() { fleet.PutHasher(hasher) }()
			for i := range jobs {
				d := &r.Devices[i]
				if batchCtxErr(ctx) != nil {
					r.DeviceErrs[i] = pairError(d.Name, ErrCanceled, batchCtxErr(ctx))
					continue
				}
				start := time.Now()
				// kind records how the hash was obtained, for the journal:
				// given by the caller, recalled from the cache, or computed
				// (dag, or the intensional fallback).
				kind := "given"
				// Cheapest first: caller-supplied hash, then the
				// persisted hash for these exact raw bytes, then load
				// and hash for real.
				if d.Hash == "" && store != nil && d.ContentSum != "" {
					if e, ok := store.GetHash(d.ContentSum); ok {
						d.Hash = e.Hash
						kind = "cached"
						if d.Hostname == "" {
							d.Hostname = e.Hostname
						}
						if d.Config == nil {
							mu.Lock()
							r.Stats.ParsesAvoided++
							mu.Unlock()
							fm.parseDedup.Inc()
							fm.pubDedup.Add(1)
						}
					}
				}
				if d.Hash == "" {
					parsed := d.Config == nil
					pstart := time.Now()
					cfg, err := materialize(d)
					if parsed || err != nil {
						pe := obs.Event{Type: obs.EvParse, Device: d.Name,
							Dur: int64(time.Since(pstart))}
						if err != nil {
							pe.Err = "parse"
						}
						fm.journal.Emit(pe)
					}
					if err != nil {
						r.DeviceErrs[i] = pairError(d.Name, ErrParse, err)
						continue
					}
					if hasher == nil {
						hasher = fleet.GetHasher()
					}
					hash, fallback := hasher.DeviceHash(cfg)
					d.Hash = hash
					kind = "dag"
					if fallback {
						kind = "fallback"
						mu.Lock()
						r.Stats.HashFallbacks++
						mu.Unlock()
						fm.fallbacks.Inc()
						fm.pubFallbacks.Add(1)
					}
					if store != nil && d.ContentSum != "" {
						store.PutHash(d.ContentSum, hash, cfg.Hostname, fallback)
					}
				}
				fm.hashed.Inc()
				fm.journal.Emit(obs.Event{Type: obs.EvHash, Device: d.Name,
					Kind: kind, Dur: int64(time.Since(start))})
				if d.Config != nil {
					if d.Hostname == "" {
						d.Hostname = d.Config.Hostname
					}
					if d.File == "" {
						d.File = d.Config.File
					}
				}
				r.render[i] = renderConfig(d)
			}
		}()
	}
	for i := range r.Devices {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for _, err := range r.DeviceErrs {
		if err != nil {
			r.Stats.Failed++
		}
	}
}

// materialize returns the device's parsed configuration, loading (once)
// if necessary.
func materialize(d *FleetDevice) (*Config, error) {
	if d.Config != nil {
		return d.Config, nil
	}
	if d.Load == nil {
		return nil, fmt.Errorf("missing configuration")
	}
	cfg, err := d.Load()
	if err != nil {
		return nil, err
	}
	if cfg == nil {
		return nil, fmt.Errorf("missing configuration")
	}
	d.Config = cfg
	return cfg, nil
}

// renderConfig is the configuration identity used when expanding reports
// for this device: the real parsed config when available, otherwise a
// stub carrying exactly what rendering reads (hostname and file).
func renderConfig(d *FleetDevice) *ir.Config {
	if d.Config != nil {
		return d.Config
	}
	return &ir.Config{Hostname: d.Hostname, File: d.File}
}

// cluster partitions the live devices into semantic classes in order of
// first appearance, so class numbering (and therefore everything
// downstream) is deterministic.
func cluster(r *FleetResult, noCluster bool) {
	byHash := map[string]int{}
	for i := range r.Devices {
		if r.DeviceErrs[i] != nil {
			r.classOf[i] = -1
			continue
		}
		r.liveSize++
		key := r.Devices[i].Hash
		if noCluster {
			key = fmt.Sprintf("device-%d", i)
		}
		ci, ok := byHash[key]
		if !ok {
			ci = len(r.Classes)
			byHash[key] = ci
			r.Classes = append(r.Classes, FleetClass{Hash: r.Devices[i].Hash})
		}
		r.Classes[ci].Members = append(r.Classes[ci].Members, i)
		r.classOf[i] = ci
	}
	r.Stats.Classes = len(r.Classes)
	r.Stats.ExpandedPairs = len(r.Devices) * (len(r.Devices) - 1) / 2
}

// neededOrientations lists the ordered class pairs some member pair
// (i < j) actually expands to. Reports are directional — config1 vs
// config2 — so a class pair may be needed in one or both orientations
// depending on how its members interleave: (a, b) is needed iff some
// member of a precedes some member of b.
func (r *FleetResult) neededOrientations() [][2]int {
	var out [][2]int
	for a := range r.Classes {
		for b := range r.Classes {
			if a == b {
				continue
			}
			ma, mb := r.Classes[a].Members, r.Classes[b].Members
			if ma[0] < mb[len(mb)-1] {
				out = append(out, [2]int{a, b})
			}
		}
	}
	return out
}

// diffRepresentatives resolves every needed ordered class pair: from the
// persistent cache when possible, otherwise by actually diffing the two
// class representatives on the batch worker pool, both orientations of
// a class pair in one joint job. Each resolved
// orientation advances the fleet run's coverage by the member pairs it
// expands to, so /runs progresses as representatives finish, not at the
// end.
func diffRepresentatives(ctx context.Context, r *FleetResult, store *fleet.Store, opts FleetOptions, optsFP string, fm *fleetMetrics, frun *obs.Run, fsp *obs.Span) error {
	needed := r.neededOrientations()
	r.Stats.RepPairs = len(needed)
	fm.repPairs.Add(uint64(len(needed)))
	fm.pubRepPairs.Add(uint64(len(needed)))

	// covered advances the fleet run by every member pair orientation key
	// expands to.
	covered := func(key [2]int, diffs int, failed bool) {
		cnt := orientationCount(r.Classes[key[0]].Members, r.Classes[key[1]].Members)
		if failed {
			frun.Advance(cnt, 0, cnt)
			return
		}
		frun.Advance(cnt, int64(diffs)*cnt, 0)
	}

	var missing [][2]int
	for _, key := range needed {
		if store != nil {
			h1, h2 := r.Classes[key[0]].Hash, r.Classes[key[1]].Hash
			if rep, ok := store.GetReport(h1, h2, optsFP); ok {
				r.repRep[key] = rep
				diffs := rep.TotalDifferences()
				covered(key, diffs, false)
				i, j := r.Classes[key[0]].Members[0], r.Classes[key[1]].Members[0]
				fm.journal.Emit(obs.Event{Type: obs.EvPair,
					Pair:  r.Devices[i].Name + " vs " + r.Devices[j].Name,
					Op:    "cached",
					Diffs: diffs,
				})
				continue
			}
		}
		missing = append(missing, key)
	}
	r.Stats.RepComputed = len(missing)
	fm.repDiffed.Add(uint64(len(missing)))
	fm.pubRepDiffed.Add(uint64(len(missing)))
	if len(missing) == 0 {
		return nil
	}

	// The representatives of every miss must be real parsed configs now.
	pairs := make([]ConfigPair, len(missing))
	sums := map[*Config]string{}
	for n, key := range missing {
		i, j := r.Classes[key[0]].Members[0], r.Classes[key[1]].Members[0]
		di, dj := &r.Devices[i], &r.Devices[j]
		name := fmt.Sprintf("%s vs %s", di.Name, dj.Name)
		c1, err1 := materialize(di)
		c2, err2 := materialize(dj)
		switch {
		case err1 != nil:
			r.repErr[key] = pairError(di.Name, ErrParse, err1)
			covered(key, 0, true)
			continue
		case err2 != nil:
			r.repErr[key] = pairError(dj.Name, ErrParse, err2)
			covered(key, 0, true)
			continue
		}
		r.render[i], r.render[j] = c1, c2
		pairs[n] = ConfigPair{Name: name, Config1: c1, Config2: c2}
		sums[c1], sums[c2] = di.ContentSum, dj.ContentSum
	}

	batch := opts.BatchOptions
	// The fleet layer already resolved the persistent cache for these
	// pairs; don't let the inner batch open a second store for them.
	batch.CacheDir = ""
	batch.TraceParent = fsp
	if batch.RunName == "" {
		batch.RunName = fmt.Sprintf("fleet rep-pairs (%d devices, %d classes)", len(r.Devices), len(r.Classes))
	}
	live := make([]ConfigPair, 0, len(pairs))
	liveKey := make([][2]int, 0, len(pairs))
	liveIdx := map[[2]int]int{}
	for n, p := range pairs {
		if p.Config1 != nil {
			liveIdx[missing[n]] = len(live)
			live = append(live, p)
			liveKey = append(liveKey, missing[n])
		}
	}
	// Both orientations of a class pair missing: one joint job diffs
	// them in a single pass (the edited singleton of a daemon write is
	// needed both ways against every template class).
	var jobs [][2]int
	paired := make([]bool, len(live))
	for n, key := range liveKey {
		if paired[n] {
			continue
		}
		job := [2]int{n, -1}
		if m, ok := liveIdx[[2]int{key[1], key[0]}]; ok {
			job[1], paired[m] = m, true
		}
		jobs = append(jobs, job)
	}
	// Advance coverage from inside the batch, as each representative pair
	// resolves — this is what makes a long rep-pair phase watchable.
	// OnResult runs on batch workers concurrently; Advance is atomic.
	userOnResult := batch.OnResult
	batch.OnResult = func(n int, res BatchResult) {
		diffs := 0
		if res.Report != nil {
			diffs = res.Report.TotalDifferences()
		}
		covered(liveKey[n], diffs, res.Err != nil)
		if userOnResult != nil {
			userOnResult(n, res)
		}
	}
	results, mirrored, comps, err := diffBatch(ctx, live, jobs, batch, store, sums)
	r.Stats.ComponentsRecalled, r.Stats.ComponentsComputed = comps.recalled, comps.computed
	for n, res := range results {
		key := liveKey[n]
		if res.Err != nil {
			r.repErr[key] = res.Err
			continue
		}
		if mirrored[n] {
			r.Stats.RepMirrored++
		}
		r.repRep[key] = res.Report
		if store != nil {
			store.PutReport(r.Classes[key[0]].Hash, r.Classes[key[1]].Hash, optsFP, res.Report)
		}
	}
	return err
}

// verifyParanoid fully diffs every non-representative member against its
// class representative. Any difference means two configurations hashed
// equal but are not semantically identical — a collision (or a hasher
// bug) worth stopping the audit for.
func verifyParanoid(ctx context.Context, r *FleetResult, opts FleetOptions, fsp *obs.Span) (string, error) {
	if !opts.Paranoid {
		return "", nil
	}
	var pairs []ConfigPair
	for _, cl := range r.Classes {
		rep := cl.Members[0]
		c1, err := materialize(&r.Devices[rep])
		if err != nil {
			continue
		}
		for _, m := range cl.Members[1:] {
			c2, err := materialize(&r.Devices[m])
			if err != nil {
				continue
			}
			pairs = append(pairs, ConfigPair{
				Name:    fmt.Sprintf("%s vs %s", r.Devices[rep].Name, r.Devices[m].Name),
				Config1: c1, Config2: c2,
			})
		}
	}
	if len(pairs) == 0 {
		return "", nil
	}
	batch := opts.BatchOptions
	batch.CacheDir = ""
	batch.TraceParent = fsp
	batch.RunName = fmt.Sprintf("fleet paranoid (%d members)", len(pairs))
	results, err := DiffBatch(ctx, pairs, batch)
	for _, res := range results {
		if res.Err == nil && res.Report.TotalDifferences() != 0 {
			return res.Name, err
		}
	}
	return "", err
}

// Each streams the expanded results in the exact order DiffAll would
// produce them: every device pair i < j, named "NameI vs NameJ". Same-
// class pairs yield an empty (equivalent) report; cross-class pairs
// yield the representative report retargeted at the member pair; pairs
// touching a failed device yield its error. Return false to stop early.
func (r *FleetResult) Each(fn func(BatchResult) bool) {
	for i := 0; i < len(r.Devices); i++ {
		for j := i + 1; j < len(r.Devices); j++ {
			if !fn(r.expand(i, j)) {
				return
			}
		}
	}
}

// Results materializes every expanded pair — DiffAll-shaped output.
// At large N prefer Each: this allocates N·(N−1)/2 results.
func (r *FleetResult) Results() []BatchResult {
	out := make([]BatchResult, 0, len(r.Devices)*(len(r.Devices)-1)/2)
	r.Each(func(res BatchResult) bool {
		out = append(out, res)
		return true
	})
	return out
}

// Pair produces the expanded result for one member pair on demand —
// what position (i, j) of Results would hold, without materializing the
// other N·(N−1)/2−1 results. The daemon's GET /report/{a}/{b} handler
// is the motivating caller. Panics unless 0 ≤ i < j < len(Devices).
func (r *FleetResult) Pair(i, j int) BatchResult {
	if i < 0 || j <= i || j >= len(r.Devices) {
		panic(fmt.Sprintf("campion: FleetResult.Pair(%d, %d) out of range (need 0 <= i < j < %d)",
			i, j, len(r.Devices)))
	}
	return r.expand(i, j)
}

// expand produces the result for member pair (i, j), i < j. It runs
// O(N^2) times per audit, so the name is concatenated, not formatted.
func (r *FleetResult) expand(i, j int) BatchResult {
	name := r.Devices[i].Name + " vs " + r.Devices[j].Name
	if err := r.DeviceErrs[i]; err != nil {
		return BatchResult{Name: name, Err: retarget(err, name)}
	}
	if err := r.DeviceErrs[j]; err != nil {
		return BatchResult{Name: name, Err: retarget(err, name)}
	}
	ci, cj := r.classOf[i], r.classOf[j]
	if ci == cj {
		// Same semantic class: equivalent by construction (and by
		// Paranoid verification when enabled).
		return BatchResult{Name: name, Report: &core.Report{Config1: r.render[i], Config2: r.render[j]}}
	}
	key := [2]int{ci, cj}
	if err, ok := r.repErr[key]; ok {
		return BatchResult{Name: name, Err: retarget(err, name)}
	}
	rep, ok := r.repRep[key]
	if !ok {
		return BatchResult{Name: name, Err: &PairError{Pair: name, Kind: ErrInternal,
			Err: fmt.Errorf("no representative report for class pair %v", key)}}
	}
	return BatchResult{Name: name, Report: fleet.RespanReport(rep, r.render[i], r.render[j])}
}

// retarget renames a representative's (or device's) error for the member
// pair it is being expanded to, keeping kind, cause, and provenance.
func retarget(err error, name string) error {
	if pe, ok := err.(*PairError); ok {
		clone := *pe
		clone.Pair = name
		return &clone
	}
	return err
}

// fleetMetrics is the live-publication half of the fleet counters: every
// instrument is resolved once per run, then advanced atomically as the
// phases progress, so a mid-run /metrics scrape reads real in-flight
// state instead of end-of-run zeros. The pub* tallies mirror what was
// published; finish() reconciles them against the run's final Stats —
// any shortfall is topped up (the counters end exactly where the old
// end-of-run flush would have left them) and the verdict lands in the
// journal as a metrics_check event.
type fleetMetrics struct {
	journal *obs.Journal

	runsTotal  *obs.Counter
	runsActive *obs.Gauge
	hashed     *obs.Counter
	parseDedup *obs.Counter
	fallbacks  *obs.Counter
	devices    *obs.Gauge
	classes    *obs.Gauge
	repPairs   *obs.Counter
	repDiffed  *obs.Counter
	hitReport  *obs.Counter
	hitHash    *obs.Counter
	missReport *obs.Counter
	missHash   *obs.Counter
	evictions  *obs.Counter
	corrupt    *obs.Counter

	pubDedup, pubFallbacks    atomic.Uint64
	pubRepPairs, pubRepDiffed atomic.Uint64
	pubHitR, pubHitH          atomic.Uint64
	pubMissR, pubMissH        atomic.Uint64
	pubEvictions, pubCorrupt  atomic.Uint64
}

// newFleetMetrics resolves the fleet instruments: in the run's
// configured registry when one is set, else the process default (the
// registry `campion -serve` exposes), matching recordParse.
func newFleetMetrics(opts FleetOptions, journal *obs.Journal) *fleetMetrics {
	reg := opts.Metrics
	if reg == nil {
		reg = obs.Default
	}
	rep, hash := obs.L("kind", "report"), obs.L("kind", "hash")
	return &fleetMetrics{
		journal:    journal,
		runsTotal:  reg.Counter("campion_fleet_runs_total", "fleet audits completed"),
		runsActive: reg.Gauge("campion_fleet_runs_active", "fleet audits currently in flight"),
		hashed: reg.Counter("campion_fleet_devices_hashed_total",
			"devices resolved to a semantic hash"),
		parseDedup: reg.Counter("campion_fleet_parse_dedup_total",
			"device parses skipped via persisted hash entries"),
		fallbacks: reg.Counter("campion_fleet_hash_fallbacks_total",
			"devices hashed with the intensional fallback"),
		devices:    reg.Gauge("campion_fleet_devices", "devices in the last fleet audit"),
		classes:    reg.Gauge("campion_fleet_classes", "semantic classes in the last fleet audit"),
		repPairs:   reg.Counter("campion_fleet_rep_pairs_total", "representative pairs resolved"),
		repDiffed:  reg.Counter("campion_fleet_rep_computed_total", "representative pairs actually diffed"),
		hitReport:  reg.Counter("campion_fleet_cache_hits_total", "persistent cache hits", rep),
		hitHash:    reg.Counter("campion_fleet_cache_hits_total", "persistent cache hits", hash),
		missReport: reg.Counter("campion_fleet_cache_misses_total", "persistent cache misses", rep),
		missHash:   reg.Counter("campion_fleet_cache_misses_total", "persistent cache misses", hash),
		evictions:  reg.Counter("campion_fleet_cache_evictions_total", "persistent cache entries evicted"),
		corrupt:    reg.Counter("campion_fleet_cache_corrupt_total", "persistent cache entries discarded as corrupt"),
	}
}

// cacheEvent is the Store observer: each hit/miss/evict/corrupt advances
// the live counter for its kind and lands in the journal.
func (fm *fleetMetrics) cacheEvent(op, kind string) {
	switch {
	case op == "hit" && kind == "report":
		fm.hitReport.Inc()
		fm.pubHitR.Add(1)
	case op == "hit" && kind == "hash":
		fm.hitHash.Inc()
		fm.pubHitH.Add(1)
	case op == "miss" && kind == "report":
		fm.missReport.Inc()
		fm.pubMissR.Add(1)
	case op == "miss" && kind == "hash":
		fm.missHash.Inc()
		fm.pubMissH.Add(1)
	case op == "evict":
		fm.evictions.Inc()
		fm.pubEvictions.Add(1)
	case op == "corrupt":
		fm.corrupt.Inc()
		fm.pubCorrupt.Add(1)
	}
	fm.journal.Emit(obs.Event{Type: obs.EvCache, Op: op, Kind: kind})
}

// finish is the end-of-run consistency check: the final Stats are the
// ground truth the old flush published; any counter the incremental path
// under-published is topped up, and every verdict is journaled. (Over-
// publication can only happen when one Store is shared across concurrent
// runs — the observer then sees the other runs' traffic too; counters
// are monotone, so it is reported, not subtracted.)
func (fm *fleetMetrics) finish(r *FleetResult) {
	fm.runsTotal.Inc()
	detail := map[string]string{}
	check := func(name string, published uint64, expected uint64, c *obs.Counter) {
		if published == expected {
			detail[name] = "ok"
			return
		}
		if published < expected {
			c.Add(expected - published)
			detail[name] = fmt.Sprintf("reconciled +%d (published %d, expected %d)",
				expected-published, published, expected)
			return
		}
		detail[name] = fmt.Sprintf("over-published %d vs %d (shared store?)", published, expected)
	}
	check("parse_dedup", fm.pubDedup.Load(), uint64(r.Stats.ParsesAvoided), fm.parseDedup)
	check("hash_fallbacks", fm.pubFallbacks.Load(), uint64(r.Stats.HashFallbacks), fm.fallbacks)
	check("rep_pairs", fm.pubRepPairs.Load(), uint64(r.Stats.RepPairs), fm.repPairs)
	check("rep_computed", fm.pubRepDiffed.Load(), uint64(r.Stats.RepComputed), fm.repDiffed)
	c := r.Stats.Cache
	check("cache_hits_report", fm.pubHitR.Load(), c.ReportHits, fm.hitReport)
	check("cache_hits_hash", fm.pubHitH.Load(), c.HashHits, fm.hitHash)
	check("cache_misses_report", fm.pubMissR.Load(), c.ReportMisses, fm.missReport)
	check("cache_misses_hash", fm.pubMissH.Load(), c.HashMisses, fm.missHash)
	check("cache_evictions", fm.pubEvictions.Load(), c.Evictions, fm.evictions)
	check("cache_corrupt", fm.pubCorrupt.Load(), c.Corrupt, fm.corrupt)
	fm.journal.Emit(obs.Event{Type: obs.EvCheck, Detail: detail})
}

// orientationCount is the number of member pairs (i < j) orientation
// (a, b) expands to: for each i in a's members, the members of b after
// it. Both lists ascend, so one merge pass suffices.
func orientationCount(ma, mb []int) int64 {
	var cnt int64
	k := 0
	for _, i := range ma {
		for k < len(mb) && mb[k] < i {
			k++
		}
		cnt += int64(len(mb) - k)
	}
	return cnt
}
