// The serve subcommand: campion as a long-lived daemon. Snapshots
// arrive over HTTP (POST /snapshot/{device}) or from a watched
// directory; every content-changing snapshot re-audits the fleet
// incrementally — warm hash/report caches prove the unedited devices
// unchanged, so steady-state audit cost is proportional to the edit.
// Results serve at GET /report/{a}/{b} and GET /fleet; /metrics, /runs,
// and /debug/pprof ride on the same listener. README.md's operations
// guide documents the endpoints and lifecycle.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/campion"
	"repro/internal/obs"
	"repro/internal/session"
)

func serveCmd(args []string) int {
	fs := flag.NewFlagSet("campion serve", flag.ExitOnError)
	addr := fs.String("addr", ":9090", "listen address for the daemon's HTTP endpoints")
	watch := fs.String("watch", "",
		"seed the session from this directory of configurations and poll it for edits")
	poll := fs.Duration("poll", 2*time.Second, "polling interval for -watch")
	cacheDir := fs.String("cache-dir", "",
		"persist semantic hashes and pair reports under this directory (cross-restart warm start); default is in-memory only")
	journalPath := fs.String("journal", "",
		"append a JSONL flight-recorder journal of every snapshot and audit to this file")
	workers := fs.Int("workers", 0, "comparison concurrency per audit (0 = one per CPU)")
	maxNodes := fs.Int("max-nodes", 0, "BDD node budget per semantic task (0 = unlimited)")
	timeout := fs.Duration("timeout", 0, "deadline per audit (0 = none)")
	components := fs.String("components", "", "comma-separated component list (default: all)")
	exhaustiveComms := fs.Bool("exhaustive-communities", false,
		"localize the community dimension of route-map differences exhaustively")
	vendorFlag := fs.String("vendor", "auto", "dialect of every snapshot: auto, cisco, juniper, arista")
	maxReports := fs.Int("max-cached-reports", 0, "bound on-disk report cache entries (0 = unlimited)")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: campion serve [flags]\n")
		fmt.Fprintf(os.Stderr, "       campion serve -watch DIR [flags]\n\n")
		fmt.Fprintf(os.Stderr, "Run the incremental snapshot re-diff daemon. Push configurations with\n")
		fmt.Fprintf(os.Stderr, "  curl --data-binary @r1.cfg http://HOST/snapshot/r1\n")
		fmt.Fprintf(os.Stderr, "and read results from /report/{a}/{b} and /fleet. See README.md.\n\n")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 0 {
		fs.Usage()
		return 2
	}

	vendor, err := vendorOf(*vendorFlag)
	if err != nil {
		return fatal(err)
	}

	var opts campion.Options
	opts.ExhaustiveCommunities = *exhaustiveComms
	opts.Workers = *workers
	opts.MaxNodes = *maxNodes
	opts.Timeout = *timeout
	opts.Metrics = campion.DefaultMetrics()
	if *components != "" {
		for _, c := range strings.Split(*components, ",") {
			opts.Components = append(opts.Components, campion.Component(strings.TrimSpace(c)))
		}
	}

	build := obs.RegisterBuildInfo(obs.Default)

	var journal *campion.Journal
	if *journalPath != "" {
		jf, err := os.Create(*journalPath)
		if err != nil {
			return fatal(err)
		}
		defer jf.Close()
		journal = campion.NewJournal(jf)
	}
	opts.Journal = journal

	var store *campion.FleetStore
	if *cacheDir != "" {
		if store, err = campion.OpenFleetStore(*cacheDir); err != nil {
			return fatal(err)
		}
		if *maxReports > 0 {
			store.SetMaxReports(*maxReports)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	sess := session.New(session.Options{
		Diff: campion.BatchOptions{
			Options:      opts,
			BatchWorkers: *workers,
			RunLog:       campion.DefaultRunLog(),
		},
		Store:   store,
		Journal: journal,
		Vendor:  vendor,
	})
	srv := &session.Server{
		Session: sess,
		Obs:     &campion.ObsServer{Registry: campion.DefaultMetrics(), Runs: campion.DefaultRunLog()},
	}

	startT := time.Now()
	if journal != nil {
		detail := build.Detail()
		detail["options_fp"] = campion.CacheFingerprint(opts)
		detail["argv"] = strings.Join(os.Args[1:], " ")
		journal.Emit(campion.JournalEvent{Type: obs.EvRunStart,
			Run: "campion serve", Detail: detail})
	}

	if *watch != "" {
		if !isDir(*watch) {
			return fatal(fmt.Errorf("-watch %s: not a directory", *watch))
		}
		w := &session.Watcher{
			Session: sess, Dir: *watch, Interval: *poll,
			OnSweep: func(changed []session.IngestResult, st session.AuditStats) {
				fmt.Fprintf(os.Stderr,
					"campion: watch: %d snapshot(s) changed; audit: %d devices, %d classes, %d/%d rep pairs re-diffed in %s\n",
					len(changed), st.Devices, st.Classes, st.RepComputed, st.RepPairs,
					time.Duration(st.DurNS).Round(time.Millisecond))
			},
		}
		// Seed synchronously so the endpoints answer from a complete
		// fleet the moment the listener is up, then poll in background.
		if changed, st := w.Sweep(ctx, "seed"); len(changed) > 0 {
			fmt.Fprintf(os.Stderr,
				"campion: seeded %d device(s) from %s: %d classes, %d/%d rep pairs diffed in %s\n",
				len(changed), *watch, st.Classes, st.RepComputed, st.RepPairs,
				time.Duration(st.DurNS).Round(time.Millisecond))
		}
		go w.Run(ctx)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	go func() {
		<-ctx.Done()
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		httpSrv.Shutdown(shutCtx)
	}()

	fmt.Fprintf(os.Stderr, "campion: daemon serving on %s (snapshots, reports, /metrics, /runs, /debug/pprof)\n", *addr)
	err = httpSrv.ListenAndServe()
	status := 0
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "campion:", err)
		status = 2
	}
	if journal != nil {
		journal.Emit(campion.JournalEvent{Type: obs.EvRunEnd,
			Dur: int64(time.Since(startT)), N: int64(status)})
		if jerr := journal.Err(); jerr != nil {
			fmt.Fprintln(os.Stderr, "campion: journal:", jerr)
		}
	}
	return status
}

// vendorOf maps the -vendor flag onto a dialect.
func vendorOf(name string) (campion.Vendor, error) {
	switch name {
	case "auto", "":
		return campion.VendorUnknown, nil
	case "cisco":
		return campion.VendorCisco, nil
	case "juniper":
		return campion.VendorJuniper, nil
	case "arista":
		return campion.VendorArista, nil
	}
	return campion.VendorUnknown, fmt.Errorf("unknown vendor %q (want auto, cisco, juniper, or arista)", name)
}
