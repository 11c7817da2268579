package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Journal is the flight recorder: a typed, append-only JSONL stream of
// run events — one JSON object per line, written as the run progresses,
// so a crashed or interrupted audit still leaves a replayable artifact
// up to the moment it died. Every stage of the pipeline emits into it
// (parse, hash, cluster, representative diff, cache traffic, expansion,
// per-component timings), each event stamped with a strictly increasing
// sequence number and a monotonic nanosecond offset from the journal's
// creation.
//
// A Journal is safe for concurrent use: Emit takes one short mutex hold
// covering the sequence stamp, the write, and the listener fan-out, so
// the file order always matches the sequence order. The nil *Journal
// discards everything at the cost of one branch, matching the rest of
// this package: call sites thread journals unconditionally and the
// disabled path stays off the profile.
type Journal struct {
	mu        sync.Mutex
	w         io.Writer // nil: events go to listeners only
	t0        time.Time
	seq       int64
	err       error // first write error; the journal degrades, never fails the run
	listeners []func(Event)
}

// Event is one flight-recorder record. Type discriminates the event (the
// Ev* constants); every other field is optional context, omitted from
// the JSONL when zero. Class is 1-based so class 1 survives omitempty;
// 0 means "no class context".
type Event struct {
	// Seq is the strictly increasing event number; T is the monotonic
	// nanosecond offset from journal creation. Both are stamped by Emit.
	Seq int64 `json:"seq"`
	T   int64 `json:"t_ns"`
	// Type is the event taxonomy tag (Ev* constants).
	Type string `json:"type"`

	// Run names the run (run_start) or labels a sub-run.
	Run string `json:"run,omitempty"`
	// Phase names the pipeline phase (phase_start / phase_end, and the
	// phase context of progress-bearing events).
	Phase string `json:"phase,omitempty"`
	// Device is the device name (parse / hash / class events).
	Device string `json:"device,omitempty"`
	// Pair is the pair name (pair / component events).
	Pair string `json:"pair,omitempty"`
	// Class is the 1-based semantic class index.
	Class int `json:"class,omitempty"`
	// Component is the diff component (component events).
	Component string `json:"component,omitempty"`
	// Kind qualifies the event: hash events carry the hashing mode
	// (dag / fallback / cached / given), cache events the entry kind
	// (report / hash), component events the check kind.
	Kind string `json:"kind,omitempty"`
	// Op qualifies cache events (hit / miss / evict / corrupt) and marks
	// cache-served pair events ("cached"), pair events whose report came
	// from the joint pass of the mirrored pair ("mirror"), and component
	// events recalled from the component memo ("cached").
	Op string `json:"op,omitempty"`
	// Dur is the event's duration in nanoseconds.
	Dur int64 `json:"dur_ns,omitempty"`
	// Diffs counts localized differences (pair events).
	Diffs int `json:"diffs,omitempty"`
	// Nodes is the BDD node delta attributable to the event.
	Nodes int64 `json:"nodes,omitempty"`
	// N is the event's count (classes found, class size, pairs expanded);
	// Total is the denominator when the event announces planned work.
	N     int64 `json:"n,omitempty"`
	Total int64 `json:"total,omitempty"`
	// Err is the failure kind (parse / canceled / budget / internal).
	Err string `json:"err,omitempty"`
	// Detail carries free-form header fields (build info, options
	// fingerprint) without widening the schema per field.
	Detail map[string]string `json:"detail,omitempty"`
}

// The event taxonomy. DESIGN.md's Flight recorder section documents the
// fields each type carries; `campion report` and the progress renderer
// consume them, so treat the tags and their field conventions as API.
const (
	EvRunStart   = "run_start"     // run header: name, Total planned units, Detail build info + options fingerprint
	EvRunEnd     = "run_end"       // run footer: Dur wall time, N exit status
	EvPhaseStart = "phase_start"   // Phase, Total planned units (0 = unknown)
	EvPhaseEnd   = "phase_end"     // Phase, Dur, N units processed
	EvParse      = "parse"         // Device, Dur, Err on failure
	EvHash       = "hash"          // Device, Kind dag|fallback|cached|given, Dur
	EvCluster    = "cluster"       // N classes over Total devices
	EvClass      = "class"         // Class (1-based), Device representative, N members
	EvPair       = "pair"          // Pair, Dur, Diffs, Nodes, Op "cached" when served from cache or "mirror" from a joint pass, Err kind
	EvComponent  = "component"     // Pair, Component, Kind, Dur, Nodes; Op "cached" (no Dur, no Nodes) when recalled from the component memo
	EvCache      = "cache"         // Op hit|miss|evict|corrupt, Kind report|hash
	EvExpand     = "expand"        // N member pairs expanded, Dur
	EvCheck      = "metrics_check" // end-of-run consistency check, Detail per-counter verdicts
	EvSnapshot   = "snapshot"      // Device, Op ingest|remove|noop, Kind push|watch|seed, N dirty components, Detail changed-line range
	EvAudit      = "audit"         // incremental re-audit: Dur, N rep pairs computed, Total rep pairs needed
	EvRepair     = "repair"        // repair search: Pair, Kind clean|repaired|partial|failed, Dur, Diffs initial regions, N candidates tried, Detail edits/size/depth/oracle rejections
)

// NewJournal starts a journal writing JSONL to w. A nil w is valid: the
// journal then only fans events out to listeners (the -progress-without
// -journal mode). All event times are relative to this call.
func NewJournal(w io.Writer) *Journal {
	return &Journal{w: w, t0: time.Now()}
}

// Listen registers a listener invoked synchronously, in sequence order,
// for every subsequent event (the progress renderer hooks in here).
// Register listeners before events flow; Listen is nevertheless safe to
// call concurrently with Emit.
func (j *Journal) Listen(fn func(Event)) {
	if j == nil || fn == nil {
		return
	}
	j.mu.Lock()
	j.listeners = append(j.listeners, fn)
	j.mu.Unlock()
}

// Emit stamps the event with the next sequence number and the monotonic
// offset, appends it to the stream, and fans it out to listeners. Write
// errors are remembered (Err) but never interrupt the run — the journal
// is an observer, not a dependency.
func (j *Journal) Emit(e Event) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.seq++
	e.Seq = j.seq
	// Stamped under the lock so t_ns never runs backwards against seq.
	e.T = int64(time.Since(j.t0))
	if j.w != nil {
		// One marshal + one write per event: each line hits the file
		// before Emit returns, so a crash loses at most the event in
		// flight, never a buffered tail.
		data, err := json.Marshal(e)
		if err == nil {
			data = append(data, '\n')
			_, err = j.w.Write(data)
		}
		if err != nil && j.err == nil {
			j.err = err
		}
	}
	listeners := j.listeners
	j.mu.Unlock()
	for _, fn := range listeners {
		fn(e)
	}
}

// Err reports the first write error, or nil. A journal with a failed
// writer keeps serving listeners.
func (j *Journal) Err() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// ReadJournal parses a JSONL journal stream. A malformed final line is
// tolerated (a crashed run truncates mid-write; the record up to there
// is still a valid artifact) — any earlier malformed line is an error.
func ReadJournal(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var events []Event
	var pendingErr error
	line := 0
	for sc.Scan() {
		line++
		text := sc.Bytes()
		if len(text) == 0 {
			continue
		}
		if pendingErr != nil {
			// The malformed line was not the last one: corrupt journal.
			return events, pendingErr
		}
		var e Event
		if err := json.Unmarshal(text, &e); err != nil {
			pendingErr = fmt.Errorf("journal line %d: %w", line, err)
			continue
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return events, err
	}
	return events, nil
}
