// Package campion is the public API of this Campion reproduction
// (Tang et al., "Campion: Debugging Router Configuration Differences",
// SIGCOMM 2021). It checks behavioral equivalence of two individual
// router configurations and localizes every difference to the affected
// message headers and the responsible configuration lines.
//
// Quick start:
//
//	cfg1, err := campion.LoadFile("cisco.cfg")
//	cfg2, err := campion.LoadFile("juniper.cfg")
//	report, err := campion.Diff(cfg1, cfg2, campion.Options{})
//	campion.Write(os.Stdout, report)
//
// The comparison is modular (§3 of the paper): ACLs and route maps are
// checked semantically with BDDs (all differences are found, each
// localized to an input set and a pair of clauses); static routes,
// connected routes, BGP session properties, OSPF link properties, and
// administrative distances are checked structurally.
//
// Scaling up, the entry points layer on one another: Diff compares one
// pair; DiffBatch / DiffAll / DiffDirs run many pairs on a parallel
// worker pool with per-pair failure isolation (see PairError and the
// Err* sentinels); DiffFleet audits a whole fleet by clustering devices
// into semantic equivalence classes and diffing only class
// representatives, with hashes and reports persisted across runs in a
// FleetStore. The `campion serve` daemon (internal/session) keeps a
// fleet audit warm across configuration pushes using exactly these
// pieces. Observability — span traces, metrics, run logs, and the
// flight-recorder Journal — attaches through Options and BatchOptions
// and is free when unset.
package campion

import (
	"context"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/arista"
	"repro/internal/cisco"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/ir"
	"repro/internal/juniper"
	"repro/internal/obs"
	"repro/internal/present"
)

// Config is a parsed router configuration in vendor-independent form.
type Config = ir.Config

// Vendor identifies a configuration dialect.
type Vendor = ir.Vendor

// Supported vendors.
const (
	VendorUnknown = ir.VendorUnknown
	VendorCisco   = ir.VendorCisco
	VendorJuniper = ir.VendorJuniper
	VendorArista  = ir.VendorArista
)

// Options configures a Diff run.
type Options = core.Options

// PolicyCache carries compiled route-map chains and their BDD factory
// across sequential Diff calls over the same devices (see
// Options.PolicyCache). Construct with NewPolicyCache; never share one
// across goroutines.
type PolicyCache = core.PolicyCache

// NewPolicyCache returns an empty compiled-policy cache.
func NewPolicyCache() *PolicyCache { return core.NewPolicyCache() }

// Component selects a class of configuration checks.
type Component = core.Component

// The comparable components (Table 1 of the paper).
const (
	ComponentRouteMaps = core.ComponentRouteMaps
	ComponentACLs      = core.ComponentACLs
	ComponentStatic    = core.ComponentStatic
	ComponentConnected = core.ComponentConnected
	ComponentBGP       = core.ComponentBGP
	ComponentOSPF      = core.ComponentOSPF
	ComponentAdmin     = core.ComponentAdmin
)

// Report is the localized result of comparing two configurations.
type Report = core.Report

// PairError is the structured failure of one comparison: the failed
// unit, one of the four failure-kind sentinels, configuration file/line
// provenance when attributable, and the underlying cause. Every non-nil
// error in a BatchResult/PairResult is one of these.
type PairError = core.PairError

// The failure kinds. Every error this package reports wraps exactly one;
// classify with errors.Is (context.Canceled and context.DeadlineExceeded
// also match through ErrCanceled's cause) or label it with ErrKind.
var (
	// ErrParse marks unreadable, unparseable, or missing configurations.
	ErrParse = core.ErrParse
	// ErrCanceled marks comparisons abandoned to a canceled context or a
	// passed deadline (including Options.Timeout).
	ErrCanceled = core.ErrCanceled
	// ErrBudget marks comparisons aborted by the Options.MaxNodes BDD
	// ceiling; only the offending pair fails.
	ErrBudget = core.ErrBudget
	// ErrInternal marks a crash isolated inside one comparison.
	ErrInternal = core.ErrInternal
)

// ErrKind labels an error's failure kind — "parse", "canceled",
// "budget", or "internal" — and returns "" for nil. It is the label
// vocabulary of the campion_pair_errors_total metric and the run log.
func ErrKind(err error) string { return core.ErrKind(err) }

// Observability re-exports: Options.Tracer/Metrics and
// BatchOptions.RunLog accept these, and Serve exposes them over HTTP.
// See internal/obs for the full API.
type (
	// Tracer records a run-scoped span tree (construct with NewTracer);
	// write it out with WriteChromeTrace or WriteTree.
	Tracer = obs.Tracer
	// Span is one recorded span; Options.TraceParent takes one.
	Span = obs.Span
	// Metrics is a registry of counters, gauges, and histograms with
	// Prometheus text exposition.
	Metrics = obs.Registry
	// RunLog remembers recent batch runs for the /runs endpoint.
	RunLog = obs.RunLog
	// ObsServer serves /metrics, /runs, and /debug/pprof.
	ObsServer = obs.Server
	// Journal is the flight recorder: an append-only JSONL run journal
	// every pipeline stage emits into (Options.Journal). Replay one with
	// ReadJournal / AnalyzeJournal, or live-follow it via Listen.
	Journal = obs.Journal
	// JournalEvent is one flight-recorder record.
	JournalEvent = obs.Event
	// BuildInfo is the binary's build provenance (VCS revision, go
	// version), stamped into journal headers and the -version flag.
	BuildInfo = obs.BuildInfo
)

// NewTracer starts an empty run tracer.
func NewTracer() *Tracer { return obs.NewTracer() }

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// NewRunLog returns a run log keeping the last capacity runs.
func NewRunLog(capacity int) *RunLog { return obs.NewRunLog(capacity) }

// DefaultMetrics is the process-wide registry: the parsers report into
// it, and `campion -serve` exposes it.
func DefaultMetrics() *Metrics { return obs.Default }

// DefaultRunLog is the process-wide run log exposed by `campion -serve`.
func DefaultRunLog() *RunLog { return obs.DefaultRuns }

// NewJournal starts a flight-recorder journal writing JSONL to w; a nil
// w keeps the journal listener-only (live progress without a file).
func NewJournal(w io.Writer) *Journal { return obs.NewJournal(w) }

// ReadJournal parses a JSONL journal stream back into events. A
// malformed final line (a crashed run's torn write) is tolerated.
func ReadJournal(r io.Reader) ([]JournalEvent, error) { return obs.ReadJournal(r) }

// ReadBuild reports the running binary's build provenance.
func ReadBuild() BuildInfo { return obs.ReadBuild() }

// CacheFingerprint is the options fingerprint keying persistent report
// cache entries — journal run headers carry it so a replayed run can be
// matched against cache state.
func CacheFingerprint(opts Options) string { return fleet.OptionsFingerprint(opts) }

// recordParse reports one parser invocation into the default registry —
// a counter bump and one histogram observation per file, which is noise
// next to the parse itself.
func recordParse(v Vendor, start time.Time, err error) {
	l := obs.L("vendor", v.String())
	obs.Default.Counter("campion_parses_total", "configurations parsed", l).Inc()
	obs.Default.Histogram("campion_parse_duration_nanoseconds", "configuration parse wall time", l).
		Observe(int64(time.Since(start)))
	if err != nil {
		obs.Default.Counter("campion_parse_errors_total", "configurations that failed to parse", l).Inc()
	}
}

// ComponentStats is the execution profile of one component of a Diff run
// (wall time, worker count, pair dedup, BDD arena/cache counters).
type ComponentStats = core.ComponentStats

// DetectVendor guesses the dialect of a configuration text: JunOS uses a
// curly-brace hierarchy, IOS uses flat line-oriented commands.
func DetectVendor(text string) Vendor {
	braces := strings.Count(text, "{")
	semis := strings.Count(text, ";")
	if braces >= 2 && semis >= 2 {
		return VendorJuniper
	}
	for _, marker := range []string{"policy-options", "routing-options", "host-name"} {
		if strings.Contains(text, marker) {
			return VendorJuniper
		}
	}
	for _, marker := range []string{"ip route", "route-map", "router bgp", "interface ", "hostname", "access-list"} {
		if strings.Contains(text, marker) {
			return VendorCisco
		}
	}
	return VendorUnknown
}

// Parse parses configuration text, auto-detecting the vendor. The file
// name is recorded in text spans for localization.
func Parse(filename, text string) (*Config, error) {
	v := DetectVendor(text)
	if v == VendorUnknown {
		return nil, fmt.Errorf("campion: cannot detect configuration dialect of %s", filename)
	}
	return ParseAs(v, filename, text)
}

// ParseAs parses configuration text as a specific vendor dialect.
// Arista EOS cannot be auto-detected (its syntax is IOS-compatible);
// select it explicitly here or with the CLI's -vendor flags.
func ParseAs(v Vendor, filename, text string) (cfg *Config, err error) {
	start := time.Now()
	defer func() { recordParse(v, start, err) }()
	switch v {
	case VendorCisco:
		return cisco.Parse(filename, text)
	case VendorJuniper:
		return juniper.Parse(filename, text)
	case VendorArista:
		return arista.Parse(filename, text)
	}
	return nil, fmt.Errorf("campion: unsupported vendor %v", v)
}

// LoadFile reads and parses a configuration file with vendor
// auto-detection.
func LoadFile(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(path, string(data))
}

// Diff compares two router configurations and returns the localized
// differences. A nil error with an empty report means the configurations
// are behaviorally equivalent over the modeled components — by the
// paper's Theorem 3.3, the two routers then compute the same routing
// solutions in any network context.
func Diff(c1, c2 *Config, opts Options) (*Report, error) {
	return core.Diff(c1, c2, opts)
}

// DiffContext is Diff under a context: cancellation and deadlines are
// polled from inside the BDD kernels, so even a comparison stuck deep in
// symbolic computation stops promptly. A cancellation, an expired
// Options.Timeout, or an Options.MaxNodes budget abort surfaces as a
// *PairError (ErrCanceled / ErrBudget).
func DiffContext(ctx context.Context, c1, c2 *Config, opts Options) (*Report, error) {
	return core.DiffContext(ctx, c1, c2, opts)
}

// Write renders the report as the paper-style difference tables.
func Write(w io.Writer, rep *Report) error {
	return present.Format(w, rep)
}

// WriteSummary renders per-component difference counts.
func WriteSummary(w io.Writer, rep *Report) {
	present.Summary(w, rep)
}

// JSON renders the report as indented JSON. The error is always nil.
func JSON(rep *Report) ([]byte, error) {
	return present.AppendJSON(nil, rep, 0), nil
}
