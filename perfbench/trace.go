package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// span is one call the benchmark made into a layer's public function.
// Spans of one op share its Op number; Parent is 0 for a root span.
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // duration minus the part child spans cover
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced ops run the same code.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(op, parent int, name string) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{Op: op, ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = int64(time.Since(t.t0))
}

// selfTimes derives every span's self time. Spans nest within one
// goroutine, so children never overlap and their durations subtract
// exactly.
func (t *tracer) selfTimes() {
	for i := range t.spans {
		t.spans[i].Self = t.spans[i].End - t.spans[i].Start
	}
	for _, s := range t.spans {
		if s.Parent != 0 {
			t.spans[s.Parent-1].Self -= s.End - s.Start
		}
	}
}

// selfMS sums the self time of every span called name, in ms.
func (t *tracer) selfMS(name string) float64 {
	var ns int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.Self
		}
	}
	return float64(ns) / float64(time.Millisecond)
}

// layerTally collects a traced run's numbers beyond the spans.
type layerTally struct {
	tracedMS []float64    // latencies of traced ops
	counts   replayCounts // work counts of the stage replays
	stripes  int          // intra-pair stripes of the diffs traced ops made or replayed
	allocs   uint64       // bytes allocated by untraced ops
	untraced int          // untraced ops allocs covers

	// fleet-daemon only: rep pairs over every write's audit, and the
	// store's hits and misses over the measured loop.
	audits, repPairs, repComputed int
	storeHits, storeMisses        uint64
}

// stageLayers pairs each inner stage of campion.Diff with its span name.
var stageLayers = [][2]string{
	{"symbolic.encode_ms", "symbolic.encode"}, {"symbolic.paths_ms", "symbolic.paths"},
	{"semdiff.ms", "semdiff"}, {"headerloc.build_ms", "headerloc.build"},
	{"headerloc.localize_ms", "headerloc.localize"}, {"structdiff.ms", "structdiff"},
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer fills the per-layer metrics, the same set on every workload.
// Times are self time per traced op, whether a layer ran inside the op or
// in the replay that followed it; counts are per traced op. A layer a
// workload never reaches reports a count of 0, never a time.
func perLayer(res *result, tr *tracer, t *layerTally, untracedMS []float64) {
	n := float64(len(t.tracedMS))
	per := func(span string) float64 { return tr.selfMS(span) / n }
	res.set("parse.ms", per("parse"), "ms")
	res.set("fleet.hash_ms", per("fleet.hash"), "ms")
	res.set("core.diff_ms", per("core.diff"), "ms")
	res.set("present.ms", per("present"), "ms")
	stages := 0.0
	for _, l := range stageLayers {
		v := per(l[1])
		stages += v
		res.set(l[0], v, "ms")
	}
	res.set("core.stage_ratio", ratio(per("core.diff"), stages), "ratio")
	res.set("core.stripes", float64(t.stripes)/n, "count")
	res.set("symbolic.paths", float64(t.counts.paths)/n, "count")
	res.set("semdiff.regions", float64(t.counts.regions)/n, "count")
	res.set("bdd.nodes", float64(t.counts.nodes)/n, "count")
	res.set("bdd.cache_hit_ratio", ratio(float64(t.counts.hits), float64(t.counts.hits+t.counts.misses)), "ratio")
	res.set("fleet.rep_pairs", ratio(float64(t.repPairs), float64(t.audits)), "count")
	res.set("fleet.rediff_ratio", ratio(float64(t.repComputed), float64(t.repPairs)), "ratio")
	res.set("fleet.store_hit_ratio", ratio(float64(t.storeHits), float64(t.storeHits+t.storeMisses)), "ratio")
	res.set("runtime.alloc_mb_per_op", float64(t.allocs)/mib/float64(t.untraced), "MB")
	res.set("runtime.heap_live_mb", heapLiveMB(), "MB")
	res.set("trace.overhead", rawQuantile(t.tracedMS, 0.5)/rawQuantile(untracedMS, 0.5), "ratio")
}

// finishTraced closes a traced run: self times, the per-layer metrics,
// the §5.4 shape rows (the same on every workload) and the span file.
func finishTraced(cfg config, workload string, res *result, tr *tracer, t *layerTally, untracedMS []float64) error {
	tr.selfTimes()
	perLayer(res, tr, t, untracedMS)
	attempted, failed := shapeRows(res, cfg.seed, cfg.size.shapes)
	res.Attempted += attempted
	res.Failed += failed
	res.Correct = res.Correct && failed == 0
	return traceReport(cfg, workload, tr, res)
}

// hostRecord describes where a traced run ran.
type hostRecord struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
	Sockets    string `json:"sockets"`
}

func readHost() hostRecord {
	h := hostRecord{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Commit:     "unknown (not built from a git checkout)",
		Sockets:    "none: every request was served in-process through the daemon's http.Handler",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// traceReport closes a traced run whose self times are derived: it
// writes the host record and every span to a JSONL file under cfg.out,
// and prints the host record, the span file and the per-layer table
// ahead of the result line.
func traceReport(cfg config, workload string, tr *tracer, res *result) error {
	host, err := json.Marshal(readHost())
	if err != nil {
		return err
	}
	buf := bytes.NewBuffer(append(host[:len(host):len(host)], '\n'))
	enc := json.NewEncoder(buf)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, cfg.seed))
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}

	w := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(w, "host %s\nspans %s (%d spans)\n", host, path, len(tr.spans))
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%-13s %-24s %14.6g %s\n", workload, n, m.Value, m.Unit)
	}
	return w.Flush()
}
