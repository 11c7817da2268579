// Command campion compares two router configurations and reports every
// behavioral difference, localized to the affected message headers and
// the responsible configuration lines (Tang et al., SIGCOMM 2021).
//
// Usage:
//
//	campion [flags] CONFIG1 CONFIG2
//	campion [flags] DIR1 DIR2
//	campion -all [flags] DIR
//	campion serve [flags]
//	campion repair [flags] CONFIG1 CONFIG2
//	campion selfcheck [flags] CONFIG1 CONFIG2
//	campion report [flags] RUN.jsonl
//
// The serve subcommand runs campion as a long-lived daemon: device
// configuration snapshots arrive over HTTP (POST /snapshot/{device}) or
// from a watched directory (-watch DIR), each content-changing snapshot
// incrementally re-audits the fleet (warm caches prove unedited devices
// unchanged, so steady-state cost is proportional to the edit), and the
// audited state serves at GET /report/{a}/{b} and GET /fleet alongside
// /metrics, /runs, and /debug/pprof. See README.md's operations guide.
//
// The repair subcommand goes one step past diagnosis: given a differing
// pair, it searches clause- and list-level edits to CONFIG2 — seeded by
// the localized diff regions — for a minimal edit sequence whose
// re-diff is empty, accepts a repair only when the concrete oracle
// agrees, and emits it as a text patch against CONFIG2's source (use
// -apply to rewrite the file in place). Exit 0 means equivalent (with
// or without a repair), 1 means differences remain unrepaired.
//
// The selfcheck subcommand does not compare the configurations for the
// operator — it audits the diff engine itself, cross-checking the
// symbolic results against an independent concrete interpreter on the
// given pair (witness soundness, completeness sampling, metamorphic
// properties). Exit 0 means consistent, 1 means an engine bug was found.
//
// The report subcommand replays a -journal flight-recorder file into an
// offline run summary (per-phase breakdown, slowest pairs, class-size
// skew, cache efficiency) and, with -trace, a Chrome trace.
//
// Flags:
//
//	-components=route-maps,acls,static,connected,bgp,ospf,admin
//	    restrict the comparison to the listed components
//	-format=text|json|summary
//	    output format (default text tables)
//	-vendor1, -vendor2=auto|cisco|juniper
//	    override dialect detection
//	-all
//	    compare every unordered pair of configurations inside one
//	    directory (fleet audit), on the parallel batch engine. Devices
//	    are clustered by semantic hash and only class representatives
//	    are diffed (output is byte-identical to the naive sweep);
//	    -cluster=false forces the naive quadratic path
//	-cache-dir=DIR
//	    persist semantic hashes and finished pair reports under DIR; a
//	    warm rerun over an unchanged fleet skips parsing and diffing
//	    entirely. Corrupt or stale entries are recomputed, never fatal
//	-paranoid
//	    verify every device against its class representative instead of
//	    trusting the semantic hash (collision guard; costs one diff per
//	    non-representative device)
//	-workers=N
//	    bound the comparison concurrency (0 = one worker per CPU). When a
//	    run has fewer unique comparisons than workers and a comparison is
//	    large (10k-rule scale), the comparison itself is partitioned
//	    across the workers (intra-pair striping); output is unchanged
//	-stats
//	    print per-component wall time and BDD statistics to stderr
//	-cpuprofile=FILE, -memprofile=FILE
//	    write pprof CPU / heap profiles, so kernel work is profileable
//	    without editing code
//	-trace=FILE
//	    record the run as a span tree: Chrome trace_event JSON to FILE
//	    (load it at chrome://tracing or ui.perfetto.dev) and an indented
//	    span tree to stderr
//	-serve=ADDR
//	    expose /metrics (Prometheus text), /runs (recent batch runs), and
//	    /debug/pprof on ADDR. With no positional arguments campion just
//	    serves; with a comparison it serves during and after the run,
//	    until interrupted
//	-timeout=DURATION
//	    deadline for the whole run; comparisons still in flight are
//	    interrupted (polled from inside the BDD kernels) and report as
//	    canceled. Ctrl-C / SIGTERM cancel the same way.
//	-max-nodes=N
//	    BDD node budget per semantic task; a comparison that exceeds it
//	    fails with a budget error while the rest of the batch completes
//	-strict
//	    exit 2 when any pair fails (parse, budget, cancellation, crash).
//	    Without it, batch modes degrade: failed pairs are reported on
//	    stderr and the exit status reflects only the differences found
//	-journal=FILE
//	    stream a JSONL flight-recorder journal of the run to FILE as it
//	    happens: run header (build info, options fingerprint), per-phase
//	    spans, per-device hash events, per-pair results, cache traffic.
//	    A crashed run leaves a replayable artifact; analyze with
//	    `campion report FILE`
//	-progress
//	    render a live one-line progress display (phase, counts, rate,
//	    ETA) on stderr, fed by the same event stream as -journal
//	-version
//	    print build provenance (VCS revision, go version) and exit
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/campion"
	"repro/internal/minesweeper"
	"repro/internal/obs"
)

// main delegates to run so deferred profile teardown survives every exit
// path (os.Exit would skip it).
func main() {
	os.Exit(run())
}

func run() int {
	// Subcommands dispatch before flag parsing so they own their flags.
	if len(os.Args) > 1 && os.Args[1] == "selfcheck" {
		return selfcheck(os.Args[2:])
	}
	if len(os.Args) > 1 && os.Args[1] == "report" {
		return reportCmd(os.Args[2:])
	}
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		return serveCmd(os.Args[2:])
	}
	if len(os.Args) > 1 && os.Args[1] == "repair" {
		return repairCmd(os.Args[2:])
	}
	components := flag.String("components", "", "comma-separated component list (default: all)")
	format := flag.String("format", "text", "output format: text, json, or summary")
	vendor1 := flag.String("vendor1", "auto", "dialect of CONFIG1: auto, cisco, juniper, arista")
	vendor2 := flag.String("vendor2", "auto", "dialect of CONFIG2: auto, cisco, juniper, arista")
	exhaustiveComms := flag.Bool("exhaustive-communities", false,
		"localize the community dimension of route-map differences exhaustively")
	baseline := flag.Bool("baseline", false,
		"additionally run the monolithic Minesweeper-style baseline on matched route maps (the paper's §2 comparison)")
	all := flag.Bool("all", false, "compare every pair of configurations within one directory")
	workers := flag.Int("workers", 0, "comparison concurrency (0 = one per CPU)")
	stats := flag.Bool("stats", false, "print per-component wall time and BDD statistics to stderr")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON of the run to this file")
	serveAddr := flag.String("serve", "", "serve /metrics, /runs, and /debug/pprof on this address (e.g. :9090)")
	timeout := flag.Duration("timeout", 0, "deadline for the whole run (0 = none)")
	maxNodes := flag.Int("max-nodes", 0, "BDD node budget per semantic task (0 = unlimited)")
	strict := flag.Bool("strict", false, "exit 2 when any pair fails instead of degrading to partial results")
	cacheDir := flag.String("cache-dir", "",
		"persist semantic hashes and pair reports under this directory; warm reruns over an unchanged fleet skip parsing and diffing")
	cluster := flag.Bool("cluster", true,
		"with -all: cluster devices by semantic hash and diff class representatives only (output is unchanged)")
	paranoid := flag.Bool("paranoid", false,
		"with -all -cluster: verify every device against its class representative (guards against hash collisions)")
	journalPath := flag.String("journal", "",
		"append a JSONL flight-recorder journal of the run to this file (replay it with `campion report`)")
	progress := flag.Bool("progress", false,
		"render a live one-line progress display with ETA on stderr")
	version := flag.Bool("version", false, "print build provenance and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: campion [flags] CONFIG1 CONFIG2\n")
		fmt.Fprintf(os.Stderr, "       campion [flags] DIR1 DIR2\n")
		fmt.Fprintf(os.Stderr, "       campion -all [flags] DIR\n")
		fmt.Fprintf(os.Stderr, "       campion -serve ADDR\n")
		fmt.Fprintf(os.Stderr, "       campion serve [-watch DIR] [flags]\n")
		fmt.Fprintf(os.Stderr, "       campion repair [flags] CONFIG1 CONFIG2\n")
		fmt.Fprintf(os.Stderr, "       campion selfcheck [flags] CONFIG1 CONFIG2\n")
		fmt.Fprintf(os.Stderr, "       campion report [flags] RUN.jsonl\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	// Build provenance: printable via -version, exposed as the
	// campion_build_info gauge, and stamped into the journal run header.
	build := obs.RegisterBuildInfo(obs.Default)
	if *version {
		fmt.Printf("campion %s\n", build.String())
		return 0
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "campion:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retention
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "campion:", err)
			}
		}()
	}

	// The run context: canceled by Ctrl-C / SIGTERM, bounded by -timeout.
	// It reaches every comparison, polled from inside the BDD kernels, so
	// even a pair stuck deep in symbolic computation stops promptly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var opts0 campion.Options
	opts0.ExhaustiveCommunities = *exhaustiveComms
	opts0.Workers = *workers
	opts0.MaxNodes = *maxNodes
	if *components != "" {
		for _, c := range strings.Split(*components, ",") {
			opts0.Components = append(opts0.Components, campion.Component(strings.TrimSpace(c)))
		}
	}

	// The flight recorder: -journal streams every stage's events to a
	// JSONL file as they happen (a crashed run still leaves a replayable
	// artifact); -progress follows the same event stream live. Either
	// flag alone works — a journal without a file serves listeners only.
	var journal *campion.Journal
	if *journalPath != "" {
		jf, err := os.Create(*journalPath)
		if err != nil {
			return fatal(err)
		}
		defer jf.Close()
		journal = campion.NewJournal(jf)
	} else if *progress {
		journal = campion.NewJournal(nil)
	}
	var prog *obs.Progress
	if *progress {
		prog = obs.NewProgress(os.Stderr)
		journal.Listen(prog.Event)
		defer prog.Close()
	}
	opts0.Journal = journal

	var tracer *campion.Tracer
	if *traceOut != "" {
		tracer = campion.NewTracer()
		opts0.Tracer = tracer
	}
	if *serveAddr != "" {
		// Every comparison in this process reports into the default
		// registry and run log, which is exactly what the server exposes.
		opts0.Metrics = campion.DefaultMetrics()
		srv := &campion.ObsServer{Registry: campion.DefaultMetrics(), Runs: campion.DefaultRunLog()}
		if flag.NArg() == 0 {
			// Serve-only mode: no comparison, just the endpoints (the
			// long-lived audit-service deployment).
			fmt.Fprintf(os.Stderr, "campion: serving /metrics, /runs, /debug/pprof on %s\n", *serveAddr)
			return fatal(srv.ListenAndServe(*serveAddr))
		}
		go func() {
			if err := srv.ListenAndServe(*serveAddr); err != nil {
				fmt.Fprintln(os.Stderr, "campion: serve:", err)
			}
		}()
	}

	// The comparison itself, as a closure so tracing and serving can wrap
	// every mode uniformly.
	work := func() int {
		// All-pairs mode: audit a whole directory of configurations
		// against each other on the batch engine.
		if *all {
			if flag.NArg() != 1 || !isDir(flag.Arg(0)) {
				flag.Usage()
				return 2
			}
			return diffAll(ctx, flag.Arg(0), opts0, allOptions{
				workers: *workers, format: *format, stats: *stats, strict: *strict,
				cacheDir: *cacheDir, cluster: *cluster, paranoid: *paranoid,
			})
		}
		if flag.NArg() != 2 {
			flag.Usage()
			return 2
		}

		// Directory mode: compare every matched pair across two
		// directories (the "all pairs of backup routers" workflow of §5.1).
		if isDir(flag.Arg(0)) && isDir(flag.Arg(1)) {
			return diffDirs(ctx, flag.Arg(0), flag.Arg(1), opts0, *workers, *format, *stats, *strict)
		}

		cfg1, err := load(flag.Arg(0), *vendor1)
		if err != nil {
			return fatal(err)
		}
		cfg2, err := load(flag.Arg(1), *vendor2)
		if err != nil {
			return fatal(err)
		}

		// Single-pair mode: any failure is fatal — there is no batch to
		// degrade into.
		rep, err := campion.DiffContext(ctx, cfg1, cfg2, opts0)
		if err != nil {
			return fatal(err)
		}
		switch *format {
		case "json":
			data, err := campion.JSON(rep)
			if err != nil {
				return fatal(err)
			}
			fmt.Println(string(data))
		case "summary":
			campion.WriteSummary(os.Stdout, rep)
		default:
			if err := campion.Write(os.Stdout, rep); err != nil {
				return fatal(err)
			}
		}
		if *stats {
			printStats(rep)
		}
		if *baseline {
			runBaseline(cfg1, cfg2)
		}
		if rep.TotalDifferences() > 0 {
			return 1 // differences found: non-zero, like diff(1)
		}
		return 0
	}

	// Run header: build provenance, the cache-keying options fingerprint,
	// and the invocation, so a replayed journal identifies its run.
	runStart := time.Now()
	if journal != nil {
		detail := build.Detail()
		detail["options_fp"] = campion.CacheFingerprint(opts0)
		detail["argv"] = strings.Join(os.Args[1:], " ")
		journal.Emit(campion.JournalEvent{
			Type:   obs.EvRunStart,
			Run:    "campion " + strings.Join(flag.Args(), " "),
			Detail: detail,
		})
	}

	status := work()

	if journal != nil {
		journal.Emit(campion.JournalEvent{Type: obs.EvRunEnd,
			Dur: int64(time.Since(runStart)), N: int64(status)})
		if err := journal.Err(); err != nil {
			fmt.Fprintln(os.Stderr, "campion: journal:", err)
		}
	}
	if tracer != nil {
		writeTrace(tracer, *traceOut)
	}
	if *serveAddr != "" {
		// Keep the endpoints up so the finished run's metrics, run log,
		// and profiles can still be scraped; the exit status is printed
		// since only an interrupt ends the process now.
		fmt.Fprintf(os.Stderr, "campion: comparison done (status %d); serving on %s until interrupted\n",
			status, *serveAddr)
		select {}
	}
	return status
}

// writeTrace dumps the recorded span tree: Chrome trace_event JSON to
// path, and the human-readable tree to stderr.
func writeTrace(t *campion.Tracer, path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "campion: trace:", err)
		return
	}
	defer f.Close()
	if err := t.WriteChromeTrace(f); err != nil {
		fmt.Fprintln(os.Stderr, "campion: trace:", err)
		return
	}
	fmt.Fprintf(os.Stderr, "--- trace (%s) ---\n", path)
	t.WriteTree(os.Stderr)
}

// printStats renders the report's per-component execution profile.
func printStats(rep *campion.Report) {
	fmt.Fprintf(os.Stderr, "%-12s %-14s %10s %6s %6s %7s %10s %12s %8s\n",
		"component", "kind", "wall", "pairs", "uniq", "workers", "bddNodes", "cacheHits", "pcHits")
	for _, st := range rep.Stats {
		fmt.Fprintf(os.Stderr, "%-12s %-14s %10s %6d %6d %7d %10d %12d %8d\n",
			st.Component, st.Kind, st.Duration.Round(time.Microsecond), st.Pairs,
			st.UniquePairs, st.Workers, st.BDDNodes, st.CacheHits, st.PolicyCacheHits)
	}
}

// runBaseline runs the monolithic checker on every matched policy pair
// and prints its one-counterexample-at-a-time view, so the two outputs
// can be compared directly (the paper's §2 exercise).
func runBaseline(cfg1, cfg2 *campion.Config) {
	fmt.Println("=== monolithic baseline (single counterexamples, no localization) ===")
	names := map[string]bool{}
	for n := range cfg1.RouteMaps {
		if _, ok := cfg2.RouteMaps[n]; ok {
			names[n] = true
		}
	}
	var sorted []string
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	for _, n := range sorted {
		ch, err := minesweeper.NewRouteMapChecker(cfg1, cfg1.RouteMaps[n], cfg2, cfg2.RouteMaps[n])
		if err != nil {
			fmt.Fprintln(os.Stderr, "campion: baseline:", err)
			continue
		}
		if ch.Equivalent() {
			fmt.Printf("route map %s: equivalent\n", n)
			continue
		}
		cex, _ := ch.NextCounterexample()
		fmt.Printf("route map %s: NOT equivalent\n", n)
		fmt.Printf("  counterexample route: %v\n", cex.Route)
		fmt.Printf("  %s action: %v; %s action: %v\n",
			cfg1.Hostname, cex.Result1.Action, cfg2.Hostname, cex.Result2.Action)
	}
}

func isDir(path string) bool {
	fi, err := os.Stat(path)
	return err == nil && fi.IsDir()
}

// failureTally counts failed pairs by kind for the end-of-run summary.
type failureTally map[string]int

func (t failureTally) add(err error) {
	t[campion.ErrKind(err)]++
}

func (t failureTally) total() int {
	n := 0
	for _, c := range t {
		n += c
	}
	return n
}

// report prints the failure summary to stderr and folds the failures
// into the exit status: strict mode turns any failure into status 2,
// otherwise the status (differences found / not found) stands and the
// run merely degrades to the pairs that worked.
func (t failureTally) report(status int, pairs int, strict bool) int {
	if t.total() == 0 {
		return status
	}
	var kinds []string
	for k := range t {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	parts := make([]string, 0, len(kinds))
	for _, k := range kinds {
		parts = append(parts, fmt.Sprintf("%s: %d", k, t[k]))
	}
	fmt.Fprintf(os.Stderr, "campion: %d of %d pairs failed (%s)\n",
		t.total(), pairs, strings.Join(parts, ", "))
	if strict {
		return 2
	}
	return status
}

// diffDirs compares every matched pair and prints one section per pair.
// Exit status: 0 all equivalent, 1 differences found, 2 usage/strict
// errors. Failed pairs degrade (reported per pair and summarized on
// stderr) unless strict is set.
func diffDirs(ctx context.Context, dir1, dir2 string, opts campion.Options, workers int, format string, stats bool, strict bool) int {
	results, err := campion.DiffDirsContext(ctx, dir1, dir2,
		campion.BatchOptions{Options: opts, BatchWorkers: workers,
			RunLog: campion.DefaultRunLog(), RunName: fmt.Sprintf("dirs %s vs %s", dir1, dir2)})
	if results == nil && err != nil {
		fmt.Fprintln(os.Stderr, "campion:", err)
		return 2
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "campion: audit incomplete:", err)
	}
	status := 0
	failed := failureTally{}
	for _, res := range results {
		fmt.Printf("=== pair %s ===\n", res.Pair.Name)
		switch {
		case res.Err != nil:
			fmt.Printf("error: %v\n\n", res.Err)
			failed.add(res.Err)
		case res.Report.TotalDifferences() == 0:
			fmt.Printf("equivalent\n\n")
		default:
			status = 1
			if format == "summary" {
				campion.WriteSummary(os.Stdout, res.Report)
				fmt.Println()
			} else {
				campion.Write(os.Stdout, res.Report)
			}
		}
		if stats && res.Report != nil {
			fmt.Fprintf(os.Stderr, "--- pair %s ---\n", res.Pair.Name)
			printStats(res.Report)
		}
	}
	return failed.report(status, len(results), strict)
}

// allOptions bundles the flags that shape an -all run.
type allOptions struct {
	workers           int
	format            string
	stats, strict     bool
	cacheDir          string
	cluster, paranoid bool
}

// diffAll compares every unordered pair of configurations within one
// directory (the fleet audit of §5.1: "are any two of these routers
// configured differently?"). By default devices are clustered by
// semantic hash and only class representatives are diffed — output is
// byte-identical to the naive quadratic sweep; -cluster=false forces
// the naive path. Same exit statuses as diffDirs; a configuration that
// fails to parse or load costs its pairs, not the audit.
func diffAll(ctx context.Context, dir string, opts campion.Options, ao allOptions) int {
	entries, err := os.ReadDir(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "campion:", err)
		return 2
	}
	var devices []campion.FleetDevice
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "campion:", err)
			return 2
		}
		text := string(data)
		devices = append(devices, campion.FleetDevice{
			Name:       strings.TrimSuffix(e.Name(), filepath.Ext(e.Name())),
			File:       path,
			ContentSum: campion.ContentSum(data),
			Load:       func() (*campion.Config, error) { return campion.Parse(path, text) },
		})
	}
	if len(devices) < 2 {
		fmt.Fprintf(os.Stderr, "campion: %s: need at least two configurations for -all\n", dir)
		return 2
	}

	fr, err := campion.DiffFleet(ctx, devices, campion.FleetOptions{
		BatchOptions: campion.BatchOptions{Options: opts, BatchWorkers: ao.workers,
			RunLog: campion.DefaultRunLog()},
		CacheDir:  ao.cacheDir,
		NoCluster: !ao.cluster,
		Paranoid:  ao.paranoid,
	})
	if fr == nil && err != nil {
		fmt.Fprintln(os.Stderr, "campion:", err)
		return 2
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "campion: audit incomplete:", err)
	}
	for i, derr := range fr.DeviceErrs {
		if derr != nil {
			fmt.Fprintf(os.Stderr, "campion: %s: %v\n", fr.Devices[i].File, derr)
		}
	}

	// The expansion is its own observable phase: the fleet engine's
	// journal stops at the representative reports, but rendering O(N^2)
	// pair sections dominates wall time at fleet scale.
	expStart := time.Now()
	opts.Journal.Emit(campion.JournalEvent{Type: obs.EvPhaseStart,
		Phase: "expand", Total: int64(fr.Stats.ExpandedPairs)})
	var esp *campion.Span
	if opts.Tracer != nil {
		esp = opts.Tracer.Root("expand", obs.Int("pairs", fr.Stats.ExpandedPairs))
	}

	// A fleet audit prints O(N^2) pair sections; buffering keeps the
	// expansion from being dominated by per-line write syscalls.
	out := bufio.NewWriterSize(os.Stdout, 1<<20)
	defer out.Flush()
	status := 0
	failed := failureTally{}
	pairs := 0
	fr.Each(func(res campion.BatchResult) bool {
		pairs++
		out.WriteString("=== " + res.Name + " ===\n")
		switch {
		case res.Err != nil:
			fmt.Fprintf(out, "error: %v\n\n", res.Err)
			failed.add(res.Err)
		case res.Report.TotalDifferences() == 0:
			out.WriteString("equivalent\n\n")
		default:
			status = 1
			if ao.format == "summary" {
				campion.WriteSummary(out, res.Report)
				fmt.Fprintln(out)
			} else {
				campion.Write(out, res.Report)
			}
		}
		return true
	})
	out.Flush()
	esp.End()
	expDur := int64(time.Since(expStart))
	opts.Journal.Emit(campion.JournalEvent{Type: obs.EvExpand,
		N: int64(pairs), Dur: expDur})
	opts.Journal.Emit(campion.JournalEvent{Type: obs.EvPhaseEnd,
		Phase: "expand", Dur: expDur, N: int64(pairs)})
	if ao.stats {
		printFleetStats(fr.Stats)
	}
	return failed.report(status, pairs, ao.strict)
}

// printFleetStats renders the clustering and cache profile of an -all run.
func printFleetStats(s campion.FleetStats) {
	fmt.Fprintf(os.Stderr, "--- fleet ---\n")
	fmt.Fprintf(os.Stderr, "devices: %d (%d failed), classes: %d, hash fallbacks: %d\n",
		s.Devices, s.Failed, s.Classes, s.HashFallbacks)
	fmt.Fprintf(os.Stderr, "pairs: %d expanded from %d representative pairs (%d computed, %d of them mirrored, %d from cache; components: %d recalled, %d computed)\n",
		s.ExpandedPairs, s.RepPairs, s.RepComputed, s.RepMirrored, s.Cache.ReportHits,
		s.ComponentsRecalled, s.ComponentsComputed)
	fmt.Fprintf(os.Stderr, "parses avoided: %d, cache: %d/%d report hits/misses, %d/%d hash hits/misses, %d evicted, %d corrupt\n",
		s.ParsesAvoided, s.Cache.ReportHits, s.Cache.ReportMisses,
		s.Cache.HashHits, s.Cache.HashMisses, s.Cache.Evictions, s.Cache.Corrupt)
}

func load(path, vendor string) (*campion.Config, error) {
	switch vendor {
	case "auto", "":
		return campion.LoadFile(path)
	case "cisco":
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		return campion.ParseAs(campion.VendorCisco, path, string(data))
	case "juniper":
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		return campion.ParseAs(campion.VendorJuniper, path, string(data))
	case "arista":
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		return campion.ParseAs(campion.VendorArista, path, string(data))
	}
	return nil, fmt.Errorf("unknown vendor %q", vendor)
}

func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "campion:", err)
	return 2
}
