package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// This file is the offline half of the flight recorder: replaying a
// journal (a finished or crashed run's JSONL stream) into an analysis —
// per-phase time breakdown, slowest pairs, class-size skew, cache
// efficiency, per-component attribution — and exporting it as a Chrome
// trace. Everything here is a pure function of the event slice, so the
// same journal always renders the same summary.

// PhaseProfile is one pipeline phase's share of the run.
type PhaseProfile struct {
	Name   string
	Dur    time.Duration
	Units  int64 // units processed (phase_end N)
	Events int64 // events attributed to the phase while it ran
}

// PairProfile is one pair comparison as the journal recorded it.
type PairProfile struct {
	Name   string
	Dur    time.Duration
	Diffs  int
	Nodes  int64
	Err    string
	Cached bool
}

// ComponentProfile aggregates the per-component events across all pairs.
// Count tallies the checks that ran, Recalled the ones served from the
// component memo (component events with Op "cached").
type ComponentProfile struct {
	Name     string
	Dur      time.Duration
	Nodes    int64
	Count    int64
	Recalled int64
}

// CacheProfile tallies one cache entry kind's traffic.
type CacheProfile struct {
	Hits, Misses, Evictions, Corrupt int64
}

// HitRate is hits over lookups, or 0 when nothing was looked up.
func (c CacheProfile) HitRate() float64 {
	if c.Hits+c.Misses == 0 {
		return 0
	}
	return float64(c.Hits) / float64(c.Hits+c.Misses)
}

// JournalAnalysis is the replayed summary of one run journal.
type JournalAnalysis struct {
	// Run is the run_start name; Detail its header fields (build info,
	// options fingerprint). Zero values when the journal has no header
	// (library runs emit stages only).
	Run    string
	Detail map[string]string
	// Truncated marks a journal without a run_end — a crashed or
	// interrupted run.
	Truncated bool
	// Wall is the run_end duration when present, else the last event's
	// offset — the best wall-time estimate a truncated journal supports.
	Wall time.Duration
	// Status is the run_end exit status.
	Status int64

	Phases     []PhaseProfile
	Pairs      []PairProfile
	Components []ComponentProfile
	// ClassSizes are the semantic class sizes, largest first; Devices
	// and Classes summarize the clustering.
	ClassSizes []int
	Devices    int64
	Classes    int64
	// Parses and Hashes count the per-device events; HashKinds splits
	// hashing by mode (dag / fallback / cached / given).
	Parses    int64
	Hashes    int64
	HashKinds map[string]int64
	// Cache tallies persistent-cache traffic by entry kind.
	Cache map[string]*CacheProfile
	// Errors counts failure events by kind.
	Errors map[string]int64
	// Expanded is the member-pair count the expansion covered; ExpandDur
	// its wall time.
	Expanded  int64
	ExpandDur time.Duration
	// Diffs sums the localized differences over all pair events.
	Diffs int64
	// Checks lists metrics_check verdicts (the end-of-run consistency
	// check between incremental publication and the final stats).
	Checks []string
}

// AnalyzeJournal replays an event slice into its analysis.
func AnalyzeJournal(events []Event) *JournalAnalysis {
	a := &JournalAnalysis{
		HashKinds: map[string]int64{},
		Cache:     map[string]*CacheProfile{},
		Errors:    map[string]int64{},
	}
	phaseIdx := map[string]int{}
	currentPhase := -1
	sawHeader := false
	for _, e := range events {
		if e.T > int64(a.Wall) {
			a.Wall = time.Duration(e.T)
		}
		if currentPhase >= 0 {
			a.Phases[currentPhase].Events++
		}
		switch e.Type {
		case EvRunStart:
			a.Run, a.Detail, sawHeader = e.Run, e.Detail, true
		case EvRunEnd:
			a.Truncated = false
			if e.Dur > 0 {
				a.Wall = time.Duration(e.Dur)
			}
			a.Status = e.N
		case EvPhaseStart:
			i, ok := phaseIdx[e.Phase]
			if !ok {
				i = len(a.Phases)
				phaseIdx[e.Phase] = i
				a.Phases = append(a.Phases, PhaseProfile{Name: e.Phase})
			}
			currentPhase = i
		case EvPhaseEnd:
			if i, ok := phaseIdx[e.Phase]; ok {
				a.Phases[i].Dur += time.Duration(e.Dur)
				a.Phases[i].Units += e.N
			}
			if currentPhase >= 0 && a.Phases[currentPhase].Name == e.Phase {
				currentPhase = -1
			}
		case EvParse:
			a.Parses++
			if e.Err != "" {
				a.Errors[e.Err]++
			}
		case EvHash:
			a.Hashes++
			a.HashKinds[e.Kind]++
		case EvCluster:
			a.Classes, a.Devices = e.N, e.Total
		case EvClass:
			a.ClassSizes = append(a.ClassSizes, int(e.N))
		case EvPair:
			a.Pairs = append(a.Pairs, PairProfile{
				Name: e.Pair, Dur: time.Duration(e.Dur), Diffs: e.Diffs,
				Nodes: e.Nodes, Err: e.Err, Cached: e.Op == "cached",
			})
			a.Diffs += int64(e.Diffs)
			if e.Err != "" {
				a.Errors[e.Err]++
			}
		case EvComponent:
			// aggregated below
		case EvCache:
			c := a.Cache[e.Kind]
			if c == nil {
				c = &CacheProfile{}
				a.Cache[e.Kind] = c
			}
			n := e.N
			if n == 0 {
				n = 1
			}
			switch e.Op {
			case "hit":
				c.Hits += n
			case "miss":
				c.Misses += n
			case "evict":
				c.Evictions += n
			case "corrupt":
				c.Corrupt += n
			}
		case EvExpand:
			a.Expanded += e.N
			a.ExpandDur += time.Duration(e.Dur)
		case EvCheck:
			keys := make([]string, 0, len(e.Detail))
			for k := range e.Detail {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				a.Checks = append(a.Checks, k+": "+e.Detail[k])
			}
		}
	}
	// A journal with events but no run_end is a truncated artifact —
	// unless it never had a header either (a bare library-level journal).
	if sawHeader {
		a.Truncated = true
		for _, e := range events {
			if e.Type == EvRunEnd {
				a.Truncated = false
				break
			}
		}
	}
	// Component aggregation, in first-appearance order for determinism.
	compIdx := map[string]int{}
	for _, e := range events {
		if e.Type != EvComponent {
			continue
		}
		i, ok := compIdx[e.Component]
		if !ok {
			i = len(a.Components)
			compIdx[e.Component] = i
			a.Components = append(a.Components, ComponentProfile{Name: e.Component})
		}
		if e.Op == "cached" {
			a.Components[i].Recalled++
			continue
		}
		a.Components[i].Dur += time.Duration(e.Dur)
		a.Components[i].Nodes += e.Nodes
		a.Components[i].Count++
	}
	sort.Sort(sort.Reverse(sort.IntSlice(a.ClassSizes)))
	return a
}

// WriteText renders the analysis as the `campion report` summary. The
// output is a pure function of the journal, so re-rendering the same
// file is byte-identical. topN bounds the slowest-pairs table.
func (a *JournalAnalysis) WriteText(w io.Writer, topN int) error {
	p := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }

	if a.Run != "" {
		p("run: %s\n", a.Run)
	}
	if len(a.Detail) > 0 {
		keys := make([]string, 0, len(a.Detail))
		for k := range a.Detail {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = k + "=" + a.Detail[k]
		}
		p("build: %s\n", strings.Join(parts, " "))
	}
	if a.Truncated {
		p("status: TRUNCATED (no run_end — crashed or interrupted after %s)\n", rdur(a.Wall))
	} else {
		p("status: complete in %s (exit %d)\n", rdur(a.Wall), a.Status)
	}

	if len(a.Phases) > 0 {
		p("\nphases:\n")
		var total time.Duration
		for _, ph := range a.Phases {
			total += ph.Dur
		}
		for _, ph := range a.Phases {
			pct := int64(0)
			if total > 0 {
				pct = int64(ph.Dur) * 100 / int64(total)
			}
			p("  %-10s %10s  %3d%%", ph.Name, rdur(ph.Dur), pct)
			if ph.Units > 0 {
				p("  %d units", ph.Units)
			}
			p("\n")
		}
	}

	if a.Devices > 0 || len(a.ClassSizes) > 0 {
		p("\nclustering: %d devices -> %d classes", a.Devices, a.Classes)
		if len(a.ClassSizes) > 0 {
			largest := a.ClassSizes[0]
			singletons := 0
			for _, s := range a.ClassSizes {
				if s == 1 {
					singletons++
				}
			}
			p("; largest %d", largest)
			if a.Devices > 0 {
				p(" (%d%%)", int64(largest)*100/a.Devices)
			}
			p(", singletons %d", singletons)
			top := a.ClassSizes
			if len(top) > 8 {
				top = top[:8]
			}
			p(", sizes %v", top)
		}
		p("\n")
	}
	if a.Hashes > 0 {
		kinds := make([]string, 0, len(a.HashKinds))
		for k := range a.HashKinds {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		parts := make([]string, len(kinds))
		for i, k := range kinds {
			parts[i] = fmt.Sprintf("%s %d", k, a.HashKinds[k])
		}
		p("hashing: %d devices (%s); %d parsed\n", a.Hashes, strings.Join(parts, ", "), a.Parses)
	}

	if len(a.Pairs) > 0 {
		cached, failed := 0, 0
		var pairWall time.Duration
		for _, pr := range a.Pairs {
			if pr.Cached {
				cached++
			}
			if pr.Err != "" {
				failed++
			}
			pairWall += pr.Dur
		}
		p("\npairs: %d compared (%d cached, %d failed), %d differences, %s total pair time\n",
			len(a.Pairs), cached, failed, a.Diffs, rdur(pairWall))
		slowest := append([]PairProfile(nil), a.Pairs...)
		sort.Slice(slowest, func(i, j int) bool {
			if slowest[i].Dur != slowest[j].Dur {
				return slowest[i].Dur > slowest[j].Dur
			}
			return slowest[i].Name < slowest[j].Name
		})
		if topN <= 0 {
			topN = 10
		}
		if len(slowest) > topN {
			slowest = slowest[:topN]
		}
		p("slowest pairs:\n")
		for i, pr := range slowest {
			p("  %2d. %-40s %10s  %3d diffs  %8d nodes", i+1, pr.Name, rdur(pr.Dur), pr.Diffs, pr.Nodes)
			if pr.Err != "" {
				p("  error=%s", pr.Err)
			}
			p("\n")
		}
	}

	if len(a.Components) > 0 {
		p("\ncomponents:\n")
		var total time.Duration
		for _, c := range a.Components {
			total += c.Dur
		}
		for _, c := range a.Components {
			pct := int64(0)
			if total > 0 {
				pct = int64(c.Dur) * 100 / int64(total)
			}
			recalled := ""
			if c.Recalled > 0 {
				recalled = fmt.Sprintf(", %d recalled", c.Recalled)
			}
			p("  %-12s %10s  %3d%%  %8d nodes  %d checks%s\n", c.Name, rdur(c.Dur), pct, c.Nodes, c.Count, recalled)
		}
	}

	if len(a.Cache) > 0 {
		kinds := make([]string, 0, len(a.Cache))
		for k := range a.Cache {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		p("\ncache:\n")
		for _, k := range kinds {
			c := a.Cache[k]
			p("  %-7s %d/%d hits (%.1f%%), %d evicted, %d corrupt\n",
				k, c.Hits, c.Hits+c.Misses, 100*c.HitRate(), c.Evictions, c.Corrupt)
		}
	}
	if a.Expanded > 0 {
		p("\nexpansion: %d member pairs in %s\n", a.Expanded, rdur(a.ExpandDur))
	}
	if len(a.Errors) > 0 {
		kinds := make([]string, 0, len(a.Errors))
		for k := range a.Errors {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		parts := make([]string, len(kinds))
		for i, k := range kinds {
			parts[i] = fmt.Sprintf("%s: %d", k, a.Errors[k])
		}
		p("\nfailures: %s\n", strings.Join(parts, ", "))
	}
	for _, c := range a.Checks {
		p("consistency: %s\n", c)
	}
	return nil
}

// rdur renders a duration with microsecond rounding — stable across
// renderings because the value comes from the journal, not the clock.
func rdur(d time.Duration) string {
	return d.Round(time.Microsecond).String()
}

// WriteJournalTrace exports a journal as Chrome trace_event JSON (load
// via chrome://tracing or ui.perfetto.dev): phases render in lane 1,
// pair comparisons pack greedily into lanes 2+ so concurrent pairs
// stack side by side, and each pair's component events nest in its lane.
func WriteJournalTrace(w io.Writer, events []Event) error {
	var out []chromeEvent
	// Phases: lane 1, reconstructed from phase_end (start = end - dur).
	for _, e := range events {
		if e.Type != EvPhaseEnd || e.Dur <= 0 {
			continue
		}
		out = append(out, chromeEvent{
			Name: "phase:" + e.Phase, Ph: "X", Pid: 1, Tid: 1,
			Ts: float64(e.T-e.Dur) / 1e3, Dur: float64(e.Dur) / 1e3,
			Args: map[string]string{"units": fmt.Sprint(e.N)},
		})
	}
	// Pairs: greedy lane packing by start time, so overlap means
	// concurrency in the rendered trace.
	type timed struct {
		e     Event
		start int64
	}
	var pairs []timed
	for _, e := range events {
		if e.Type == EvPair && e.Dur > 0 {
			pairs = append(pairs, timed{e, e.T - e.Dur})
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].start != pairs[j].start {
			return pairs[i].start < pairs[j].start
		}
		return pairs[i].e.Seq < pairs[j].e.Seq
	})
	var laneEnd []int64
	pairLane := map[string]int{}
	for _, t := range pairs {
		lane := -1
		for i, end := range laneEnd {
			if end <= t.start {
				lane = i
				break
			}
		}
		if lane < 0 {
			lane = len(laneEnd)
			laneEnd = append(laneEnd, 0)
		}
		laneEnd[lane] = t.e.T
		tid := lane + 2
		pairLane[t.e.Pair] = tid
		args := map[string]string{"diffs": fmt.Sprint(t.e.Diffs)}
		if t.e.Err != "" {
			args["error"] = t.e.Err
		}
		out = append(out, chromeEvent{
			Name: t.e.Pair, Ph: "X", Pid: 1, Tid: tid,
			Ts: float64(t.start) / 1e3, Dur: float64(t.e.Dur) / 1e3, Args: args,
		})
	}
	// Components nest inside their pair's lane.
	for _, e := range events {
		if e.Type != EvComponent || e.Dur <= 0 {
			continue
		}
		tid, ok := pairLane[e.Pair]
		if !ok {
			tid = 1 // single-pair runs: no pair event, render with phases
		}
		out = append(out, chromeEvent{
			Name: e.Component, Ph: "X", Pid: 1, Tid: tid,
			Ts: float64(e.T-e.Dur) / 1e3, Dur: float64(e.Dur) / 1e3,
		})
	}
	if out == nil {
		out = []chromeEvent{}
	}
	return json.NewEncoder(w).Encode(out)
}
