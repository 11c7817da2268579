// Package session is the state layer behind `campion serve`: a
// long-lived fleet whose device configurations arrive one snapshot at a
// time (HTTP pushes or a directory watcher) and whose audit state is
// kept continuously consistent at the cost of the *edit*, not the fleet.
//
// The incremental contract is deliberately indirect. A snapshot does
// not patch the previous audit; every ingest re-runs campion.DiffFleet
// over the full device set. What makes that cheap — and what makes the
// result byte-identical to a cold audit by construction — is that the
// session pins all the pipeline's content-addressed caches warm across
// runs: the raw-bytes→semantic-hash store entry proves every unedited
// device unchanged without parsing it, the (hashA, hashB, options)
// report store serves every class pair whose membership the edit did
// not move, and the in-memory write-through memo (fleet.Store) makes
// both lookups pointer-chases instead of disk reads. The only real work
// left is proportional to the edit: one parse, one device hash, and a
// representative re-diff per class pair the edit actually changed.
//
// Dirty-component tracking (dirty.go) runs alongside as telemetry: the
// changed line range of each snapshot is mapped onto component spans
// and closed over the reference graph, so journals and metrics can say
// *what* an edit touched — but no correctness decision rides on it.
package session

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/campion"
	"repro/internal/obs"
)

// Sentinel errors the HTTP layer maps onto status codes.
var (
	// ErrUnknownDevice: the named device has no snapshot in the session.
	ErrUnknownDevice = errors.New("unknown device")
	// ErrNoAudit: no snapshot has been ingested yet, so there is no
	// fleet state to query.
	ErrNoAudit = errors.New("no audit has run yet")
	// ErrBadName: the device name is empty or contains path separators.
	ErrBadName = errors.New("invalid device name")
)

// Options configures a Session.
type Options struct {
	// Diff carries the comparison and batch options every audit runs
	// under (workers, budgets, journal, metrics, run log).
	Diff campion.BatchOptions
	// Store is the hash/report cache shared by all audits. Leave nil for
	// a process-local in-memory store; pass an OpenFleetStore with
	// EnableMemo for cross-restart persistence that still serves hot
	// lookups from memory.
	Store *campion.FleetStore
	// Journal, when set, receives the session's snapshot/audit events
	// (and is threaded into Diff.Journal when that is unset, so one
	// file records the whole story).
	Journal *obs.Journal
	// Metrics receives the campion_session_* instruments; nil means the
	// process default registry (what -serve exposes).
	Metrics *obs.Registry
	// Vendor forces a configuration dialect for every snapshot;
	// VendorUnknown (the default) auto-detects per snapshot.
	Vendor campion.Vendor
}

// device is one device's current snapshot.
type device struct {
	name     string
	raw      []byte
	lines    []string
	sum      string
	cfg      *campion.Config
	parseErr error
}

// Session is the daemon's fleet state. All methods are safe for
// concurrent use; ingests serialize (each one audits), reads serve the
// latest finished audit.
type Session struct {
	opts    Options
	store   *campion.FleetStore
	journal *obs.Journal
	met     *sessionMetrics

	mu      sync.Mutex
	devices map[string]*device

	// resultMu guards the published audit state separately from the
	// ingest path, so report reads never wait on an in-flight audit's
	// representative diffs.
	resultMu sync.RWMutex
	result   *campion.FleetResult
	index    map[string]int // device name -> index in result.Devices
	last     AuditStats
	ingested uint64
}

// New builds an empty session. A nil Store gets a fresh in-memory
// store; a disk-backed Store gets its write-through memo enabled (the
// session exists to keep lookups hot).
func New(opts Options) *Session {
	store := opts.Store
	if store == nil {
		store = campion.OpenMemFleetStore()
	} else {
		store.EnableMemo()
	}
	if opts.Diff.Journal == nil {
		opts.Diff.Journal = opts.Journal
	}
	return &Session{
		opts:    opts,
		store:   store,
		journal: opts.Journal,
		met:     newSessionMetrics(opts.Metrics),
		devices: map[string]*device{},
	}
}

// IngestResult describes what one snapshot did to the session.
type IngestResult struct {
	Device string `json:"device"`
	// Op is "ingest" (content changed; an audit ran), "noop" (bytes
	// identical to the current snapshot; nothing ran), or "remove".
	Op string `json:"op"`
	// Kind records how the snapshot arrived: "push", "watch", or "seed".
	Kind string `json:"kind,omitempty"`
	// Changed is the edited line range of the new snapshot ("12-14",
	// "" when the edit only deleted lines); ChangedPrev is the
	// corresponding range of the previous snapshot.
	Changed     string `json:"changed,omitempty"`
	ChangedPrev string `json:"changed_prev,omitempty"`
	// Dirty names the components the edit can have touched — span
	// overlap closed over the reference graph (telemetry; see dirty.go).
	Dirty []string `json:"dirty,omitempty"`
	// ParseError is set when the snapshot failed to parse. It is still
	// ingested: the device's pairs degrade to parse errors, exactly as
	// in a batch run, and a later good snapshot heals it.
	ParseError string `json:"parse_error,omitempty"`
	// Audit summarizes the re-audit this snapshot triggered (nil for
	// no-ops and for seed ingests with AuditAfter deferred).
	Audit *AuditStats `json:"audit,omitempty"`
}

// AuditStats summarizes one DiffFleet pass over the session.
type AuditStats struct {
	Devices     int   `json:"devices"`
	Failed      int   `json:"failed"`
	Classes     int   `json:"classes"`
	RepPairs    int   `json:"rep_pairs"`
	RepComputed int   `json:"rep_computed"`
	RepMirrored int   `json:"rep_mirrored"` // of RepComputed, from a mirror's joint pass
	DurNS       int64 `json:"dur_ns"`
	// ComponentsRecalled and ComponentsComputed split the computed rep
	// pairs' semantic components between the store's component memo and
	// core (campion.FleetStats).
	ComponentsRecalled int `json:"components_recalled"`
	ComponentsComputed int `json:"components_computed"`
}

// RediffRatio is the fraction of needed representative pairs this audit
// actually diffed — 0 for a fully cache-served (steady-state) audit,
// 1 for a cold one. The daemon's headline number.
func (a AuditStats) RediffRatio() float64 {
	if a.RepPairs == 0 {
		return 0
	}
	return float64(a.RepComputed) / float64(a.RepPairs)
}

// checkName rejects names that would garble URLs or journal lines.
func checkName(name string) error {
	if name == "" || strings.ContainsAny(name, "/\\ \t\n") {
		return fmt.Errorf("%w: %q", ErrBadName, name)
	}
	return nil
}

// Ingest records a device snapshot and, when its bytes differ from the
// current one, re-audits the fleet. kind labels the arrival path for
// the journal ("push", "watch", "seed"). Byte-identical snapshots are
// no-ops: no parse, no audit. audit=false defers the re-audit (bulk
// seeding); call Audit once afterwards.
func (s *Session) Ingest(ctx context.Context, name string, raw []byte, kind string, audit bool) (IngestResult, error) {
	if err := checkName(name); err != nil {
		return IngestResult{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	res := IngestResult{Device: name, Kind: kind}
	sum := campion.ContentSum(raw)
	prev := s.devices[name]
	if prev != nil && prev.sum == sum {
		res.Op = "noop"
		s.met.snapshot("noop")
		s.journal.Emit(obs.Event{Type: obs.EvSnapshot, Device: name, Op: "noop", Kind: kind})
		return res, nil
	}
	res.Op = "ingest"

	d := &device{name: name, raw: append([]byte(nil), raw...), sum: sum, lines: splitLines(raw)}
	d.cfg, d.parseErr = s.parse(name, raw)
	if d.parseErr != nil {
		res.ParseError = d.parseErr.Error()
	}

	detail := map[string]string{"sum": sum[:12]}
	if prev == nil {
		res.Dirty = allComponents(d.cfg)
		if n := len(d.lines); n > 0 {
			res.Changed = lineRange{1, n}.String()
		}
	} else {
		oldR, newR := changedRange(prev.lines, d.lines)
		res.Changed, res.ChangedPrev = newR.String(), oldR.String()
		res.Dirty = dirtyComponents(prev.cfg, d.cfg, oldR, newR)
	}
	if res.Changed != "" {
		detail["changed"] = res.Changed
	}
	if res.ChangedPrev != "" {
		detail["changed_prev"] = res.ChangedPrev
	}
	if len(res.Dirty) > 0 {
		// The journal line carries the blast radius itself (it is short:
		// an edit touches a handful of components); the count rides in N.
		detail["dirty"] = strings.Join(res.Dirty, ", ")
	}
	s.devices[name] = d
	s.met.snapshot("ingest")
	s.met.dirty.Add(uint64(len(res.Dirty)))
	s.met.devices.Set(int64(len(s.devices)))
	ev := obs.Event{Type: obs.EvSnapshot, Device: name, Op: "ingest", Kind: kind,
		N: int64(len(res.Dirty)), Detail: detail}
	if d.parseErr != nil {
		ev.Err = "parse"
	}
	s.journal.Emit(ev)

	if !audit {
		return res, nil
	}
	st, err := s.auditLocked(ctx)
	if err != nil {
		return res, err
	}
	res.Audit = &st
	return res, nil
}

// Remove drops a device from the session and re-audits. audit=false
// defers the re-audit, as with Ingest.
func (s *Session) Remove(ctx context.Context, name string, audit bool) (IngestResult, error) {
	if err := checkName(name); err != nil {
		return IngestResult{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.devices[name]; !ok {
		return IngestResult{}, fmt.Errorf("%w: %q", ErrUnknownDevice, name)
	}
	delete(s.devices, name)
	s.met.snapshot("remove")
	s.met.devices.Set(int64(len(s.devices)))
	s.journal.Emit(obs.Event{Type: obs.EvSnapshot, Device: name, Op: "remove"})
	res := IngestResult{Device: name, Op: "remove"}
	if len(s.devices) == 0 {
		s.resultMu.Lock()
		s.result, s.index = nil, nil
		s.resultMu.Unlock()
		return res, nil
	}
	if !audit {
		return res, nil
	}
	st, err := s.auditLocked(ctx)
	if err != nil {
		return res, err
	}
	res.Audit = &st
	return res, nil
}

// Audit re-runs the fleet audit over the current snapshots (the
// explicit form of what every content-changing Ingest does).
func (s *Session) Audit(ctx context.Context) (AuditStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.auditLocked(ctx)
}

// auditLocked runs DiffFleet over the session's devices — every hash
// and every unchanged class pair served by the warm store — and
// publishes the result. Caller holds s.mu.
func (s *Session) auditLocked(ctx context.Context) (AuditStats, error) {
	if len(s.devices) == 0 {
		s.resultMu.Lock()
		s.result, s.index, s.last = nil, nil, AuditStats{}
		s.resultMu.Unlock()
		return AuditStats{}, nil
	}
	names := make([]string, 0, len(s.devices))
	for n := range s.devices {
		names = append(names, n)
	}
	sort.Strings(names)
	fleetDevs := make([]campion.FleetDevice, len(names))
	for i, n := range names {
		d := s.devices[n]
		fd := campion.FleetDevice{Name: n, ContentSum: d.sum}
		if d.parseErr != nil {
			err := d.parseErr
			fd.Load = func() (*campion.Config, error) { return nil, err }
		} else {
			fd.Config = d.cfg
		}
		fleetDevs[i] = fd
	}

	start := time.Now()
	fr, err := campion.DiffFleet(ctx, fleetDevs, campion.FleetOptions{
		BatchOptions: s.opts.Diff,
		Store:        s.store,
	})
	if err != nil {
		return AuditStats{}, err
	}
	st := AuditStats{
		Devices: fr.Stats.Devices, Failed: fr.Stats.Failed,
		Classes: fr.Stats.Classes, RepPairs: fr.Stats.RepPairs,
		RepComputed: fr.Stats.RepComputed, RepMirrored: fr.Stats.RepMirrored,
		ComponentsRecalled: fr.Stats.ComponentsRecalled, ComponentsComputed: fr.Stats.ComponentsComputed,
		DurNS: int64(time.Since(start)),
	}

	index := make(map[string]int, len(names))
	for i, n := range names {
		index[n] = i
	}
	s.resultMu.Lock()
	s.result, s.index, s.last = fr, index, st
	s.ingested++
	s.resultMu.Unlock()

	s.met.audit(st)
	s.journal.Emit(obs.Event{Type: obs.EvAudit, Dur: st.DurNS,
		N: int64(st.RepComputed), Total: int64(st.RepPairs),
		Detail: map[string]string{
			"devices": fmt.Sprintf("%d", st.Devices),
			"classes": fmt.Sprintf("%d", st.Classes),
		}})
	return st, nil
}

// parse builds the device's configuration from raw bytes.
func (s *Session) parse(name string, raw []byte) (*campion.Config, error) {
	if s.opts.Vendor != campion.VendorUnknown {
		return campion.ParseAs(s.opts.Vendor, name, string(raw))
	}
	return campion.Parse(name, string(raw))
}

// Report expands the audited result for one device pair. The pair is
// oriented by the session's deterministic device order (sorted names),
// matching what `campion -all` over the same files would print — asking
// for (b, a) returns the same oriented pair as (a, b).
func (s *Session) Report(a, b string) (campion.BatchResult, error) {
	s.resultMu.RLock()
	defer s.resultMu.RUnlock()
	if s.result == nil {
		return campion.BatchResult{}, ErrNoAudit
	}
	i, ok := s.index[a]
	if !ok {
		return campion.BatchResult{}, fmt.Errorf("%w: %q", ErrUnknownDevice, a)
	}
	j, ok := s.index[b]
	if !ok {
		return campion.BatchResult{}, fmt.Errorf("%w: %q", ErrUnknownDevice, b)
	}
	if i == j {
		return campion.BatchResult{}, fmt.Errorf("%w: %q twice", ErrBadName, a)
	}
	if i > j {
		i, j = j, i
	}
	return s.result.Pair(i, j), nil
}

// DeviceSummary is one device's row in the fleet summary.
type DeviceSummary struct {
	Name string `json:"name"`
	Hash string `json:"hash,omitempty"`
	// Class is the 1-based semantic class, 0 for failed devices.
	Class int    `json:"class,omitempty"`
	Error string `json:"error,omitempty"`
}

// FleetSummary is the GET /fleet payload: the audited fleet state.
type FleetSummary struct {
	Devices []DeviceSummary `json:"devices"`
	// Classes lists each semantic class's member device names;
	// element 0 of each is the representative.
	Classes   [][]string `json:"classes"`
	Audit     AuditStats `json:"audit"`
	Snapshots uint64     `json:"snapshots"`
}

// Fleet snapshots the audited fleet state.
func (s *Session) Fleet() (FleetSummary, error) {
	s.resultMu.RLock()
	defer s.resultMu.RUnlock()
	if s.result == nil {
		return FleetSummary{}, ErrNoAudit
	}
	fr := s.result
	sum := FleetSummary{Audit: s.last, Snapshots: s.ingested}
	classOf := map[string]int{}
	sum.Classes = make([][]string, len(fr.Classes))
	for ci, cl := range fr.Classes {
		members := make([]string, len(cl.Members))
		for n, m := range cl.Members {
			members[n] = fr.Devices[m].Name
			classOf[fr.Devices[m].Name] = ci + 1
		}
		sum.Classes[ci] = members
	}
	sum.Devices = make([]DeviceSummary, len(fr.Devices))
	for i, d := range fr.Devices {
		ds := DeviceSummary{Name: d.Name, Hash: d.Hash, Class: classOf[d.Name]}
		if err := fr.DeviceErrs[i]; err != nil {
			ds.Error = err.Error()
		}
		sum.Devices[i] = ds
	}
	return sum, nil
}

// Snapshot returns the raw bytes of a device's current snapshot.
func (s *Session) Snapshot(name string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.devices[name]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), d.raw...), true
}

// Devices returns the current device names, sorted.
func (s *Session) Devices() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.devices))
	for n := range s.devices {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// LastAudit returns the most recent audit's stats (zero before any).
func (s *Session) LastAudit() AuditStats {
	s.resultMu.RLock()
	defer s.resultMu.RUnlock()
	return s.last
}

// sessionMetrics is the campion_session_* instrument set.
type sessionMetrics struct {
	ingest, noop, remove *obs.Counter
	devices              *obs.Gauge
	dirty                *obs.Counter
	audits               *obs.Counter
	repPairs, repDiffed  *obs.Counter
	rediffPercent        *obs.Gauge
	auditDur             *obs.Histogram
}

func newSessionMetrics(reg *obs.Registry) *sessionMetrics {
	if reg == nil {
		reg = obs.Default
	}
	snaps := func(op string) *obs.Counter {
		return reg.Counter("campion_session_snapshots_total",
			"device snapshots received by the session", obs.L("op", op))
	}
	return &sessionMetrics{
		ingest:  snaps("ingest"),
		noop:    snaps("noop"),
		remove:  snaps("remove"),
		devices: reg.Gauge("campion_session_devices", "devices currently in the session"),
		dirty: reg.Counter("campion_session_dirty_components_total",
			"components inside snapshot edits' blast radii"),
		audits: reg.Counter("campion_session_audits_total", "incremental fleet audits run"),
		repPairs: reg.Counter("campion_session_rep_pairs_total",
			"representative pairs needed across session audits"),
		repDiffed: reg.Counter("campion_session_rep_computed_total",
			"representative pairs actually re-diffed across session audits"),
		rediffPercent: reg.Gauge("campion_session_rediff_ratio_percent",
			"last audit's re-diff ratio (rep pairs computed / needed), in percent"),
		auditDur: reg.Histogram("campion_session_audit_duration_nanoseconds",
			"incremental audit wall time"),
	}
}

func (m *sessionMetrics) snapshot(op string) {
	switch op {
	case "ingest":
		m.ingest.Inc()
	case "noop":
		m.noop.Inc()
	case "remove":
		m.remove.Inc()
	}
}

func (m *sessionMetrics) audit(st AuditStats) {
	m.audits.Inc()
	m.repPairs.Add(uint64(st.RepPairs))
	m.repDiffed.Add(uint64(st.RepComputed))
	m.rediffPercent.Set(int64(100 * st.RediffRatio()))
	m.auditDur.Observe(st.DurNS)
}
