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
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"unicode/utf8"

	"repro/internal/core"
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
// start. Memo entries are never dropped — SetMaxReports bounds only the
// on-disk report files — so a memoized report can outlive its disk copy.
// That is safe (entries are immutable content keyed by their full
// identity), but the memo is not bounded by the live fleet: a daemon's
// memo grows with every fresh edit, by about 3.1 MB each on a 200-device
// fleet. ROADMAP.md's open item on bounding daemon memory tracks the fix.
//
// Every Store, disk-backed or not, also keeps a component memo
// (GetComponent / PutComponent): the results of single semantic
// components, keyed by the options fingerprint and the two sides'
// component digests. Component entries live in memory only and are
// never dropped either, so they grow with distinct policy contents the
// same way reports grow with distinct classes.
type Store struct {
	dir        string // <root>/v1; "" for a memory-only store
	maxReports int64

	// memo, when non-nil, is the in-memory layer: full entry key →
	// *core.Report (reports) or HashEntry (hashes). A memoized report
	// has the wire shape DecodeReport returns — Hostname/File stub
	// configs, no Stats — so it never pins parsed configurations (span
	// lines may still share their source text). After a put it is the
	// producer's own report, difference slices shared; after a disk
	// read it is the decode. Either way it is read-only and shared
	// between callers (RespanReport copies). Disk entries are JSON, and
	// an entry JSON cannot carry faithfully is never written.
	memo *sync.Map

	// components is the component memo: componentKey → *core.Report
	// holding one component's fields (see PutComponent).
	components sync.Map

	reportHits, reportMisses atomic.Uint64
	hashHits, hashMisses     atomic.Uint64
	evictions, corrupt       atomic.Uint64
	reportPuts               atomic.Uint64

	evictMu sync.Mutex

	// observer, when set, is called at every counter site with the
	// operation ("hit", "miss", "evict", "corrupt") and the entry kind
	// ("hash", "report") — the hook the fleet engine uses for live
	// cache-traffic publication. Stored atomically so SetObserver is safe
	// while lookups are in flight.
	observer atomic.Pointer[func(op, kind string)]
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
	return &Store{memo: &sync.Map{}}
}

// EnableMemo layers a write-through in-memory copy over a disk-backed
// store: every entry read from or written to disk is also kept in
// memory, and later lookups are served from there without touching the
// filesystem. Call it once, before lookups begin.
func (s *Store) EnableMemo() {
	if s.memo == nil {
		s.memo = &sync.Map{}
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
	memoKey := "hash\x00" + contentSum
	if s.memo != nil {
		if v, ok := s.memo.Load(memoKey); ok {
			s.hashHits.Add(1)
			s.observe("hit", "hash")
			return v.(HashEntry), true
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
		s.memo.Store(memoKey, e)
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
		s.memo.Store("hash\x00"+contentSum, e)
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
	memoKey := "report\x00" + hash1 + "\x00" + hash2 + "\x00" + optsFP
	if s.memo != nil {
		if v, ok := s.memo.Load(memoKey); ok {
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
		s.memo.Store(memoKey, rep)
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
		s.memo.Store("report\x00"+hash1+"\x00"+hash2+"\x00"+optsFP, payloadOf(rep).report())
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
func componentKey(c core.Component, optsFP, digest1, digest2 string) string {
	return string(c) + "\x00" + optsFP + "\x00" + digest1 + "\x00" + digest2
}

// GetComponent looks up the memoized part of component c for a pair
// whose sides have the given component digests (the ComponentDigests
// field for c), under the options fingerprint. The part is shared and
// read-only: retarget it with RespanReport.
func (s *Store) GetComponent(c core.Component, optsFP, digest1, digest2 string) (*core.Report, bool) {
	v, ok := s.components.Load(componentKey(c, optsFP, digest1, digest2))
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
	s.components.Store(componentKey(c, optsFP, digest1, digest2), part)
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
