package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// sampleJournal is a tiny synthetic run: two phases, three pairs (one
// cached, one failed), cache traffic, and a footer.
func sampleJournal() []Event {
	return []Event{
		{Seq: 1, T: 10, Type: EvRunStart, Run: "campion fleet",
			Detail: map[string]string{"go": "go1.24.0"}},
		{Seq: 2, T: 20, Type: EvPhaseStart, Phase: "hash", Total: 4},
		{Seq: 3, T: 100, Type: EvHash, Device: "r1", Kind: "dag", Dur: 80},
		{Seq: 4, T: 120, Type: EvHash, Device: "r2", Kind: "cached", Dur: 10},
		{Seq: 5, T: 130, Type: EvCache, Op: "hit", Kind: "hash"},
		{Seq: 6, T: 200, Type: EvPhaseEnd, Phase: "hash", Dur: 180, N: 4},
		{Seq: 7, T: 210, Type: EvCluster, N: 2, Total: 4},
		{Seq: 8, T: 220, Type: EvClass, Class: 1, Device: "r1", N: 3},
		{Seq: 9, T: 230, Type: EvClass, Class: 2, Device: "r2", N: 1},
		{Seq: 10, T: 240, Type: EvPhaseStart, Phase: "rep-pairs"},
		{Seq: 11, T: 1000, Type: EvComponent, Pair: "r1 vs r2", Component: "route-maps",
			Kind: "SemanticDiff", Dur: 700, Nodes: 500},
		{Seq: 12, T: 1100, Type: EvPair, Pair: "r1 vs r2", Dur: 860, Diffs: 2, Nodes: 500},
		{Seq: 13, T: 1200, Type: EvPair, Pair: "r2 vs r1", Op: "cached", Diffs: 2},
		{Seq: 14, T: 1300, Type: EvPair, Pair: "r1 vs r3", Dur: 50, Err: "parse"},
		{Seq: 15, T: 1400, Type: EvPhaseEnd, Phase: "rep-pairs", Dur: 1160, N: 3},
		{Seq: 16, T: 1500, Type: EvExpand, N: 6, Dur: 90},
		{Seq: 17, T: 1600, Type: EvCheck, Detail: map[string]string{"rep_pairs": "ok"}},
		{Seq: 18, T: 1700, Type: EvRunEnd, Dur: 1690, N: 1},
	}
}

func TestAnalyzeJournal(t *testing.T) {
	a := AnalyzeJournal(sampleJournal())
	if a.Run != "campion fleet" || a.Truncated {
		t.Fatalf("header: run=%q truncated=%v", a.Run, a.Truncated)
	}
	if a.Wall != 1690 || a.Status != 1 {
		t.Fatalf("wall=%d status=%d", a.Wall, a.Status)
	}
	if len(a.Phases) != 2 || a.Phases[0].Name != "hash" || a.Phases[1].Name != "rep-pairs" {
		t.Fatalf("phases: %+v", a.Phases)
	}
	if a.Phases[0].Dur != 180 || a.Phases[0].Units != 4 {
		t.Fatalf("hash phase: %+v", a.Phases[0])
	}
	if a.Classes != 2 || a.Devices != 4 || len(a.ClassSizes) != 2 || a.ClassSizes[0] != 3 {
		t.Fatalf("clustering: classes=%d devices=%d sizes=%v", a.Classes, a.Devices, a.ClassSizes)
	}
	if a.Hashes != 2 || a.HashKinds["dag"] != 1 || a.HashKinds["cached"] != 1 {
		t.Fatalf("hashes: %d %v", a.Hashes, a.HashKinds)
	}
	if len(a.Pairs) != 3 || a.Diffs != 4 {
		t.Fatalf("pairs: %d, diffs %d", len(a.Pairs), a.Diffs)
	}
	cached := 0
	for _, p := range a.Pairs {
		if p.Cached {
			cached++
		}
	}
	if cached != 1 {
		t.Fatalf("cached pairs: %d", cached)
	}
	if a.Errors["parse"] != 1 {
		t.Fatalf("errors: %v", a.Errors)
	}
	if len(a.Components) != 1 || a.Components[0].Nodes != 500 {
		t.Fatalf("components: %+v", a.Components)
	}
	if c := a.Cache["hash"]; c == nil || c.Hits != 1 {
		t.Fatalf("cache: %+v", a.Cache)
	}
	if a.Expanded != 6 || a.ExpandDur != 90 {
		t.Fatalf("expand: %d in %d", a.Expanded, a.ExpandDur)
	}
	if len(a.Checks) != 1 || a.Checks[0] != "rep_pairs: ok" {
		t.Fatalf("checks: %v", a.Checks)
	}
}

func TestAnalyzeJournalTruncated(t *testing.T) {
	events := sampleJournal()
	a := AnalyzeJournal(events[:len(events)-1]) // drop run_end
	if !a.Truncated {
		t.Fatal("journal without run_end should analyze as truncated")
	}
	if a.Wall != 1600 {
		t.Fatalf("truncated wall should be the last event offset, got %d", a.Wall)
	}
	// A headerless (library-level) journal is not "truncated".
	if a := AnalyzeJournal(events[1:]); a.Truncated {
		t.Fatal("headerless journal misreported as truncated")
	}
}

func TestWriteTextDeterministic(t *testing.T) {
	a := AnalyzeJournal(sampleJournal())
	var b1, b2 bytes.Buffer
	if err := a.WriteText(&b1, 10); err != nil {
		t.Fatal(err)
	}
	if err := AnalyzeJournal(sampleJournal()).WriteText(&b2, 10); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatal("WriteText is not deterministic across renderings")
	}
	out := b1.String()
	for _, want := range []string{"status: complete", "rep-pairs", "slowest pairs",
		"r1 vs r2", "failures: parse: 1", "consistency: rep_pairs: ok"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestWriteJournalTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJournalTrace(&buf, sampleJournal()); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	names := map[string]bool{}
	lanes := map[string]float64{}
	for _, e := range events {
		name := e["name"].(string)
		names[name] = true
		lanes[name] = e["tid"].(float64)
	}
	for _, want := range []string{"phase:hash", "phase:rep-pairs", "r1 vs r2", "route-maps"} {
		if !names[want] {
			t.Fatalf("trace missing %q; have %v", want, names)
		}
	}
	// Phases render in lane 1; pairs pack into lanes 2+; a pair's
	// components share its lane.
	if lanes["phase:hash"] != 1 {
		t.Fatalf("phase lane = %v", lanes["phase:hash"])
	}
	if lanes["r1 vs r2"] < 2 || lanes["route-maps"] != lanes["r1 vs r2"] {
		t.Fatalf("pair lane %v, component lane %v", lanes["r1 vs r2"], lanes["route-maps"])
	}
	// Empty journal still yields valid JSON (an empty array).
	buf.Reset()
	if err := WriteJournalTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(buf.String()) != "[]" {
		t.Fatalf("empty trace = %q", buf.String())
	}
}

func TestTraceLanePacking(t *testing.T) {
	// Two overlapping pairs need two lanes; a third starting after both
	// ended reuses lane 2.
	events := []Event{
		{Seq: 1, T: 100, Type: EvPair, Pair: "a", Dur: 100}, // 0..100
		{Seq: 2, T: 150, Type: EvPair, Pair: "b", Dur: 100}, // 50..150 overlaps a
		{Seq: 3, T: 300, Type: EvPair, Pair: "c", Dur: 50},  // 250..300 reuses first lane
	}
	var buf bytes.Buffer
	if err := WriteJournalTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	var out []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	tid := map[string]float64{}
	for _, e := range out {
		tid[e["name"].(string)] = e["tid"].(float64)
	}
	if tid["a"] == tid["b"] {
		t.Fatalf("overlapping pairs packed into one lane: %v", tid)
	}
	if tid["c"] != tid["a"] {
		t.Fatalf("pair c should reuse the freed lane: %v", tid)
	}
}

// TestAnalyzeJournalRecalledComponents: component events recalled from
// the component memo (Op "cached") count apart from the checks that ran
// and add no time or nodes.
func TestAnalyzeJournalRecalledComponents(t *testing.T) {
	a := AnalyzeJournal([]Event{
		{Seq: 1, T: 100, Type: EvComponent, Pair: "r1 vs r2", Component: "route-maps",
			Kind: "SemanticDiff", Dur: 90, Nodes: 40},
		{Seq: 2, T: 110, Type: EvComponent, Pair: "r1 vs r3", Component: "route-maps",
			Kind: "SemanticDiff", Op: "cached"},
		{Seq: 3, T: 120, Type: EvComponent, Pair: "r3 vs r1", Component: "route-maps",
			Kind: "SemanticDiff", Op: "cached"},
	})
	if len(a.Components) != 1 {
		t.Fatalf("components: %+v", a.Components)
	}
	if c := a.Components[0]; c.Count != 1 || c.Recalled != 2 || c.Dur != 90 || c.Nodes != 40 {
		t.Fatalf("route-maps profile %+v, want 1 check of 90ns and 40 nodes, 2 recalled", c)
	}
	var b bytes.Buffer
	if err := a.WriteText(&b, 5); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "1 checks, 2 recalled") {
		t.Fatalf("summary does not show the recalled checks:\n%s", b.String())
	}
}
