// Persistent on-disk cache: device-hash entries (raw-bytes digest →
// semantic hash, so warm runs skip parsing unchanged files) and finished
// pair reports keyed by (hashA, hashB, options fingerprint).
//
// Layout: <dir>/v1/hashes/<key>.json and <dir>/v1/reports/<key>.json,
// one entry per file. Every entry is written atomically (temp file +
// rename into place) and carries a checksum header plus an embedded copy
// of its key, so a truncated, corrupted, or collided file is detected on
// read and treated as a miss — the entry is deleted and recomputed,
// never trusted and never fatal. Concurrent processes sharing one cache
// directory are safe by construction: readers only ever see fully
// renamed files, and two writers racing on one key resolve to
// last-writer-wins (both wrote the same semantic content, so either is
// correct).
//
// Versioning: the store directory is namespaced by storeVersion, the
// device hash mixes in its own hashVersion, hash entries carry
// hashEntryVersion and report payloads payloadVersion. Any format change
// lands in a fresh namespace or fails the version check on read — stale
// entries self-invalidate. A read also refuses an entry holding the
// \ufffd escape: the writers never produce one, because JSON would have
// replaced text that is not valid UTF-8.
package fleet

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/ir"
)

// storeVersion namespaces the on-disk layout.
const storeVersion = "v1"

// entryMagic heads every cache file: "campion-cache <version> <sha256 of
// body>\n<body>". A file that does not parse to this shape is corrupt.
const entryMagic = "campion-cache"

// Store is a persistent cache rooted at a directory. All methods are
// safe for concurrent use by multiple goroutines and multiple processes.
//
// Two memory variants exist for long-lived processes. OpenMemStore
// builds a Store with no backing directory at all — entries live only in
// the process (the `campion serve` default when no -cache-dir is given).
// EnableMemo layers a write-through in-memory copy over a disk store, so
// a daemon that already paid the disk read (or write) for an entry never
// pays it again; the disk keeps its role as the cross-restart warm
// start. SetMaxReports bounds only the on-disk report files, so a
// memoized report can outlive its disk copy; that is safe, because
// entries are immutable content keyed by their full identity.
//
// Every Store, disk-backed or not, also keeps a component memo
// (GetComponent / PutComponent): the results of single semantic
// components, keyed by the options fingerprint and the two sides'
// component digests. Component entries live in memory only.
//
// Nothing in memory is dropped unless the store's owner calls Retain
// with the fleet it still holds: a daemon session does after every
// audit, which bounds the memo by the live fleet plus a small window of
// recently dead classes and snapshots. Such a store belongs to its
// session alone. Batch runs never call Retain, so batch runs that share
// a store never lose each other's entries.
type Store struct {
	dir        string // <root>/v1; "" for a memory-only store
	maxReports int64

	// memo, when non-nil, is the in-memory layer over the disk entries.
	memo *memoTables

	// components is the component memo: componentKey → *core.Report
	// holding one component's fields (see PutComponent).
	components sync.Map

	// retainMu serializes Retain, which advances the two windows of
	// recently dead classes and snapshots.
	retainMu            sync.Mutex
	deadClass, deadSnap deathWindow

	reportHits, reportMisses atomic.Uint64
	hashHits, hashMisses     atomic.Uint64
	evictions, corrupt       atomic.Uint64
	reportPuts               atomic.Uint64
	digests                  atomic.Uint64

	evictMu sync.Mutex

	// observer, when set, is called at every counter site with the
	// operation ("hit", "miss", "evict", "corrupt") and the entry kind
	// ("hash", "report") — the hook the fleet engine uses for live
	// cache-traffic publication. Stored atomically so SetObserver is safe
	// while lookups are in flight.
	observer atomic.Pointer[func(op, kind string)]
}

// memoTables is the in-memory layer. Its maps are typed by entry kind
// and keyed by each entry's identity, so Retain reads an entry's class
// hashes or content sum without parsing a key.
type memoTables struct {
	// reports: reportKey → *core.Report. A memoized report has the wire
	// shape DecodeReport returns — Hostname/File stub configs, no Stats —
	// so it never pins parsed configurations (span lines may still share
	// their source text). After a put it is the producer's own report,
	// difference slices shared; after a disk read it is the decode.
	// Either way it is read-only and shared between callers (RespanReport
	// copies). Disk entries are JSON, and an entry JSON cannot carry
	// faithfully is never written.
	reports sync.Map
	// hashes: content sum → *hashSlot.
	hashes sync.Map
}

// reportKey is the identity of one report entry.
type reportKey struct{ hash1, hash2, optsFP string }

// hashSlot is one memoized hash entry, plus the component digests of the
// snapshot it describes once SnapshotDigests has computed them.
type hashSlot struct {
	entry   HashEntry
	digests atomic.Pointer[snapshotDigests]
}

// snapshotDigests are carried digests and whether the configuration they
// were computed from had no file name (Digests records that bit).
type snapshotDigests struct {
	ComponentDigests
	noFile bool
}

// SetObserver installs (or, with nil, removes) the per-event counter
// hook. At most one observer is active; a later call replaces the
// earlier one (last writer wins — relevant only when one Store is shared
// across concurrent runs, where per-run attribution is approximate
// anyway because the counters themselves are shared).
func (s *Store) SetObserver(fn func(op, kind string)) {
	if fn == nil {
		s.observer.Store(nil)
		return
	}
	s.observer.Store(&fn)
}

// observe fires the observer hook, if any.
func (s *Store) observe(op, kind string) {
	if fn := s.observer.Load(); fn != nil {
		(*fn)(op, kind)
	}
}

// StoreStats is a snapshot of the store's counters since OpenStore.
type StoreStats struct {
	ReportHits, ReportMisses uint64
	HashHits, HashMisses     uint64
	Evictions, Corrupt       uint64
	// Digests counts the Digests calls SnapshotDigests made: the
	// snapshots it digested rather than found carried.
	Digests uint64
}

// OpenStore opens (creating if needed) a cache under dir.
func OpenStore(dir string) (*Store, error) {
	s := &Store{dir: filepath.Join(dir, storeVersion)}
	for _, sub := range []string{"hashes", "reports"} {
		if err := os.MkdirAll(filepath.Join(s.dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("open cache: %w", err)
		}
	}
	return s, nil
}

// OpenMemStore returns a store with no backing directory: every entry
// lives in memory and dies with the process. It serves the daemon's
// "keep warm across requests" role when the operator has not asked for
// cross-restart persistence.
func OpenMemStore() *Store {
	return &Store{memo: &memoTables{}}
}

// EnableMemo layers a write-through in-memory copy over a disk-backed
// store: every entry read from or written to disk is also kept in
// memory, and later lookups are served from there without touching the
// filesystem. Call it once, before lookups begin.
func (s *Store) EnableMemo() {
	if s.memo == nil {
		s.memo = &memoTables{}
	}
}

// SetMaxReports bounds the number of report entries kept on disk;
// 0 (the default) means unlimited. When the bound is exceeded the
// oldest entries (by modification time) are evicted.
func (s *Store) SetMaxReports(n int) { atomic.StoreInt64(&s.maxReports, int64(n)) }

// Stats snapshots the counters.
func (s *Store) Stats() StoreStats {
	return StoreStats{
		ReportHits: s.reportHits.Load(), ReportMisses: s.reportMisses.Load(),
		HashHits: s.hashHits.Load(), HashMisses: s.hashMisses.Load(),
		Evictions: s.evictions.Load(), Corrupt: s.corrupt.Load(),
		Digests: s.digests.Load(),
	}
}

// HashEntry records one device's semantic hash, keyed by the digest of
// its raw configuration bytes. Hostname rides along so a warm run can
// render pair names and reports without re-parsing the file.
type HashEntry struct {
	Version    int
	ContentSum string
	Hash       string
	Hostname   string
	Fallback   bool
}

// hashEntryVersion guards HashEntry's JSON shape. Version 2 marks entries
// written since PutHash skips hostnames that are not valid UTF-8.
const hashEntryVersion = 2

// ContentSum digests raw configuration bytes for hash-entry keys.
func ContentSum(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// GetHash looks up the semantic hash recorded for raw-config digest
// contentSum.
func (s *Store) GetHash(contentSum string) (HashEntry, bool) {
	if s.memo != nil {
		if v, ok := s.memo.hashes.Load(contentSum); ok {
			s.hashHits.Add(1)
			s.observe("hit", "hash")
			return v.(*hashSlot).entry, true
		}
	}
	var e HashEntry
	if s.dir == "" {
		s.hashMisses.Add(1)
		s.observe("miss", "hash")
		return e, false
	}
	path := s.path("hashes", "hash", contentSum)
	body, ok := s.readEntry(path, "hash")
	if !ok {
		s.hashMisses.Add(1)
		s.observe("miss", "hash")
		return e, false
	}
	// An entry holding the \ufffd escape carries a hostname JSON has
	// already changed: PutHash never writes one.
	if err := json.Unmarshal(body, &e); err != nil || bytes.Contains(body, invalidUTF8) ||
		e.Version != hashEntryVersion || e.ContentSum != contentSum {
		s.discard(path, "hash")
		s.hashMisses.Add(1)
		s.observe("miss", "hash")
		return HashEntry{}, false
	}
	if s.memo != nil {
		s.memo.hashes.Store(contentSum, &hashSlot{entry: e})
	}
	s.hashHits.Add(1)
	s.observe("hit", "hash")
	return e, true
}

// PutHash records a device's semantic hash.
func (s *Store) PutHash(contentSum, hash, hostname string, fallback bool) {
	e := HashEntry{
		Version: hashEntryVersion, ContentSum: contentSum,
		Hash: hash, Hostname: hostname, Fallback: fallback,
	}
	if s.memo != nil {
		s.memo.hashes.Store(contentSum, &hashSlot{entry: e})
	}
	// encoding/json would replace the bytes of an invalid hostname, and
	// a warm run would render a different name.
	if s.dir == "" || !utf8.ValidString(hostname) {
		return
	}
	body, err := json.Marshal(e)
	if err != nil {
		return
	}
	s.writeEntry(s.path("hashes", "hash", contentSum), body)
}

// reportEntry wraps a report payload with its full key, so a filename
// collision (or a moved file) is detected rather than served.
type reportEntry struct {
	Hash1, Hash2 string
	OptionsFP    string
	Report       json.RawMessage
}

// GetReport looks up the finished report for the ordered pair of device
// hashes under the given options fingerprint. The returned report is
// shared (possibly with other concurrent callers) and must not be
// mutated; RespanReport already copies.
func (s *Store) GetReport(hash1, hash2, optsFP string) (*core.Report, bool) {
	memoKey := reportKey{hash1, hash2, optsFP}
	if s.memo != nil {
		if v, ok := s.memo.reports.Load(memoKey); ok {
			s.reportHits.Add(1)
			s.observe("hit", "report")
			return v.(*core.Report), true
		}
	}
	if s.dir == "" {
		s.reportMisses.Add(1)
		s.observe("miss", "report")
		return nil, false
	}
	path := s.path("reports", "report", hash1, hash2, optsFP)
	body, ok := s.readEntry(path, "report")
	if !ok {
		s.reportMisses.Add(1)
		s.observe("miss", "report")
		return nil, false
	}
	var e reportEntry
	if err := json.Unmarshal(body, &e); err != nil ||
		e.Hash1 != hash1 || e.Hash2 != hash2 || e.OptionsFP != optsFP {
		s.discard(path, "report")
		s.reportMisses.Add(1)
		s.observe("miss", "report")
		return nil, false
	}
	rep, err := DecodeReport(e.Report)
	if err != nil {
		s.discard(path, "report")
		s.reportMisses.Add(1)
		s.observe("miss", "report")
		return nil, false
	}
	if s.memo != nil {
		s.memo.reports.Store(memoKey, rep)
	}
	s.reportHits.Add(1)
	s.observe("hit", "report")
	return rep, true
}

// PutReport stores a finished report under its key. Failures are
// silent — the cache is an accelerator, never a correctness dependency;
// a report whose text EncodeReport refuses is kept in the memo only.
//
// The memo takes rep's difference slices without copying them: the
// caller gives up the right to mutate them, and the memo entry, like
// every memo entry, is read-only (consumers get RespanReport copies).
// Because the entry is the producer's own report in wire shape, a
// later lookup renders exactly what the producing run rendered.
func (s *Store) PutReport(hash1, hash2, optsFP string, rep *core.Report) {
	if s.memo != nil {
		s.memo.reports.Store(reportKey{hash1, hash2, optsFP}, payloadOf(rep).report())
	}
	if s.dir == "" {
		return
	}
	payload, err := EncodeReport(rep)
	if err != nil {
		return
	}
	body, err := json.Marshal(reportEntry{
		Hash1: hash1, Hash2: hash2, OptionsFP: optsFP, Report: payload,
	})
	if err != nil {
		return
	}
	s.writeEntry(s.path("reports", "report", hash1, hash2, optsFP), body)
	// Amortize the directory scan: check the bound once per batch of
	// puts, not on every write.
	if max := atomic.LoadInt64(&s.maxReports); max > 0 && s.reportPuts.Add(1)%32 == 0 {
		s.evictReports(int(max))
	}
}

// componentKey is the component memo key of one ordered side pair.
type componentKey struct {
	c                        core.Component
	optsFP, digest1, digest2 string
}

// GetComponent looks up the memoized part of component c for a pair
// whose sides have the given component digests (the ComponentDigests
// field for c), under the options fingerprint. The part is shared and
// read-only: retarget it with RespanReport.
func (s *Store) GetComponent(c core.Component, optsFP, digest1, digest2 string) (*core.Report, bool) {
	v, ok := s.components.Load(componentKey{c, optsFP, digest1, digest2})
	if !ok {
		return nil, false
	}
	return v.(*core.Report), true
}

// PutComponent memoizes part, a report holding only component c's
// fields as a successful diff of a pair with the given digests produced
// them. The store keeps part itself: the caller must not mutate it or
// the slices it shares. The entry lives in memory only.
func (s *Store) PutComponent(c core.Component, optsFP, digest1, digest2 string, part *core.Report) {
	s.components.Store(componentKey{c, optsFP, digest1, digest2}, part)
}

// SnapshotDigests returns Digests(cfg) for a configuration whose raw
// bytes have content sum contentSum. With the memo on, the digests ride
// in contentSum's memo hash entry, so a snapshot is digested once while
// that entry lives rather than once per audit; the entry must already
// exist (this run's GetHash or PutHash made it) for them to be carried.
// Without a sum or an entry it computes them every call.
func (s *Store) SnapshotDigests(contentSum string, cfg *ir.Config) ComponentDigests {
	var slot *hashSlot
	if s.memo != nil && contentSum != "" {
		if v, ok := s.memo.hashes.Load(contentSum); ok {
			slot = v.(*hashSlot)
		}
	}
	noFile := cfg.File == ""
	if slot != nil {
		if d := slot.digests.Load(); d != nil && d.noFile == noFile {
			return d.ComponentDigests
		}
	}
	d := &snapshotDigests{Digests(cfg), noFile}
	s.digests.Add(1)
	if slot != nil {
		slot.digests.Store(d)
	}
	return d.ComponentDigests
}

// RetainWindow is how many recently dead classes, and how many recently
// dead snapshots, Retain keeps beyond the live set. One serves a device
// toggling back to its previous variant (TestToggleServedFromWindow);
// no test or benchmark returns to a variant two deaths back. Each dead
// class kept costs its reports against every live class, about what one
// fresh edit adds (2.2 MB on BenchmarkSessionFreshEdit's 200-device
// fleet).
const RetainWindow = 1

// MemoSize counts in-memory entries by kind.
type MemoSize struct {
	Reports, Hashes, Components int
}

// Total is the number of entries of every kind.
func (m MemoSize) Total() int { return m.Reports + m.Hashes + m.Components }

// Retain bounds the memo by the fleet its owner still holds: classes are
// the live class hashes, sums the content sums of the live snapshots.
// It drops every memoized report whose two hashes are not both kept,
// every memoized hash entry whose content sum is not kept, and every
// component part whose two digests no kept snapshot carries. A hash or a
// sum is kept while it is live or among the RetainWindow most recently
// dead ones of its kind, so a device that returns to a recent variant is
// still served from memory. It returns the entries kept and dropped.
//
// Only the memo is pruned: disk entries stay, so a dropped entry of a
// disk-backed store is read back on demand. A dropped entry costs a
// recomputation, never a wrong report. Retain is for a store with one
// owner that sees the whole fleet, such as a daemon session, and it is a
// no-op without the memo. Concurrent Get and Put calls are safe; an entry
// put during the sweep for a key the live set does not cover may or may
// not survive it.
func (s *Store) Retain(classes, sums []string) (kept, dropped MemoSize) {
	if s.memo == nil {
		return kept, dropped
	}
	s.retainMu.Lock()
	defer s.retainMu.Unlock()
	keepClass := s.deadClass.advance(classes)
	keepSum := s.deadSnap.advance(sums)

	digests := map[string]bool{}
	for _, set := range [][]string{sums, s.deadSnap.dead} {
		for _, sum := range set {
			if v, ok := s.memo.hashes.Load(sum); ok {
				if d := v.(*hashSlot).digests.Load(); d != nil {
					digests[d.RouteMaps], digests[d.ACLs] = true, true
				}
			}
		}
	}
	sweep := func(m *sync.Map, keep func(key any) bool, kept, dropped *int) {
		m.Range(func(k, v any) bool {
			if keep(k) {
				*kept++
			} else if m.CompareAndDelete(k, v) {
				*dropped++
			}
			return true
		})
	}
	sweep(&s.memo.reports, func(k any) bool {
		key := k.(reportKey)
		return keepClass(key.hash1) && keepClass(key.hash2)
	}, &kept.Reports, &dropped.Reports)
	sweep(&s.memo.hashes, func(k any) bool { return keepSum(k.(string)) },
		&kept.Hashes, &dropped.Hashes)
	sweep(&s.components, func(k any) bool {
		key := k.(componentKey)
		return digests[key.digest1] && digests[key.digest2]
	}, &kept.Components, &dropped.Components)
	return kept, dropped
}

// deathWindow tracks one kind of key across Retain calls: the previous
// live set, and the keys that have left it most recently, oldest first.
type deathWindow struct {
	live map[string]bool
	dead []string
}

// advance moves the window to a new live set. Keys that were live and
// are not any more join the dead end of the window (in sorted order, so
// the window does not depend on map order), revived keys leave it, and
// only the newest RetainWindow stay. It returns the keep test: live now,
// or in the window.
func (w *deathWindow) advance(live []string) func(string) bool {
	next := make(map[string]bool, len(live))
	for _, k := range live {
		next[k] = true
	}
	var died []string
	for k := range w.live {
		if !next[k] {
			died = append(died, k)
		}
	}
	sort.Strings(died)
	var dead []string
	for _, k := range w.dead {
		if !next[k] {
			dead = append(dead, k)
		}
	}
	dead = append(dead, died...)
	if n := len(dead) - RetainWindow; n > 0 {
		dead = dead[n:]
	}
	w.live, w.dead = next, dead
	return func(k string) bool { return next[k] || slices.Contains(dead, k) }
}

// EvictNow applies the report bound immediately (tests and shutdown).
func (s *Store) EvictNow() {
	if max := atomic.LoadInt64(&s.maxReports); max > 0 {
		s.evictReports(int(max))
	}
}

func (s *Store) evictReports(max int) {
	if s.dir == "" {
		return
	}
	s.evictMu.Lock()
	defer s.evictMu.Unlock()
	dir := filepath.Join(s.dir, "reports")
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) <= max {
		return
	}
	type aged struct {
		name string
		info fs.FileInfo
	}
	var files []aged
	for _, e := range entries {
		info, err := e.Info()
		if err != nil || !info.Mode().IsRegular() {
			continue
		}
		files = append(files, aged{e.Name(), info})
	}
	if len(files) <= max {
		return
	}
	sort.Slice(files, func(i, j int) bool {
		if !files[i].info.ModTime().Equal(files[j].info.ModTime()) {
			return files[i].info.ModTime().Before(files[j].info.ModTime())
		}
		return files[i].name < files[j].name
	})
	for _, f := range files[:len(files)-max] {
		if os.Remove(filepath.Join(dir, f.name)) == nil {
			s.evictions.Add(1)
			s.observe("evict", "report")
		}
	}
}

// path derives an entry's filename from its key parts.
func (s *Store) path(sub, kind string, parts ...string) string {
	h := sha256.New()
	h.Write([]byte(kind))
	for _, p := range parts {
		h.Write([]byte{0})
		h.Write([]byte(p))
	}
	return filepath.Join(s.dir, sub, hex.EncodeToString(h.Sum(nil))+".json")
}

// readEntry reads and verifies one cache file. Any deviation — missing,
// truncated, bad magic, wrong version, checksum mismatch — is a miss;
// non-missing deviations also delete the file and count as corruption.
// kind labels the entry ("hash", "report") for the observer hook.
func (s *Store) readEntry(path, kind string) ([]byte, bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			s.discard(path, kind)
		}
		return nil, false
	}
	header, body, found := strings.Cut(string(data), "\n")
	fields := strings.Fields(header)
	if !found || len(fields) != 3 || fields[0] != entryMagic || fields[1] != storeVersion {
		s.discard(path, kind)
		return nil, false
	}
	sum := sha256.Sum256([]byte(body))
	if fields[2] != hex.EncodeToString(sum[:]) {
		s.discard(path, kind)
		return nil, false
	}
	return []byte(body), true
}

// writeEntry atomically installs a cache file: write a temp file in the
// same directory, fsync-free rename into place. Last writer wins.
func (s *Store) writeEntry(path string, body []byte) {
	sum := sha256.Sum256(body)
	content := fmt.Sprintf("%s %s %s\n%s", entryMagic, storeVersion, hex.EncodeToString(sum[:]), body)
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return
	}
	name := tmp.Name()
	_, werr := tmp.WriteString(content)
	cerr := tmp.Close()
	if werr != nil || cerr != nil || os.Rename(name, path) != nil {
		os.Remove(name)
	}
}

// discard removes a bad entry and counts the corruption.
func (s *Store) discard(path, kind string) {
	if os.Remove(path) == nil {
		s.corrupt.Add(1)
		s.observe("corrupt", kind)
	}
}

// OptionsFingerprint digests the report-affecting comparison options for
// the report-cache key. Only settings that change report bytes
// participate: the component set and the exhaustive-communities mode.
// Execution modes (Workers, PolicyCache) are deliberately excluded —
// reports are byte-identical across them (pinned by the golden-corpus
// mode sweep) — so a cache warmed under one mode serves all others.
func OptionsFingerprint(opts core.Options) string {
	comps := make([]string, len(opts.Components))
	for i, c := range opts.Components {
		comps[i] = string(c)
	}
	sort.Strings(comps)
	key := fmt.Sprintf("opts-v1|components=%s|exhaustive=%t",
		strings.Join(comps, ","), opts.ExhaustiveCommunities)
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:8])
}
