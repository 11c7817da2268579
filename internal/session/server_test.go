package session

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/campion"
	"repro/internal/obs"
)

func newTestServer(t *testing.T) (*httptest.Server, *Session, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	sess := New(Options{Metrics: reg})
	srv := &Server{
		Session: sess,
		Obs:     &obs.Server{Registry: reg, Runs: obs.NewRunLog(8)},
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, sess, reg
}

func do(t *testing.T, method, url string, body string) (*http.Response, []byte) {
	t.Helper()
	var req *http.Request
	var err error
	if body == "" {
		req, err = http.NewRequest(method, url, nil)
	} else {
		req, err = http.NewRequest(method, url, strings.NewReader(body))
	}
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 1<<20)
	n, _ := resp.Body.Read(buf)
	for n < len(buf) {
		m, err := resp.Body.Read(buf[n:])
		n += m
		if err != nil {
			break
		}
	}
	return resp, buf[:n]
}

// TestServerEndpoints walks the daemon's whole HTTP surface: push,
// no-op push, reports in both orientations, fleet state, snapshot
// round-trip, delete, and the documented error codes.
func TestServerEndpoints(t *testing.T) {
	ts, _, _ := newTestServer(t)
	snaps := fleetSnapshots(4, 17)

	// Before any snapshot: fleet and report are 503, snapshot 404.
	if resp, _ := do(t, "GET", ts.URL+"/fleet", ""); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("empty GET /fleet = %d, want 503", resp.StatusCode)
	}
	if resp, _ := do(t, "GET", ts.URL+"/report/a/b", ""); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("empty GET /report = %d, want 503", resp.StatusCode)
	}
	if resp, _ := do(t, "GET", ts.URL+"/snapshot/a", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET missing snapshot = %d, want 404", resp.StatusCode)
	}
	if resp, _ := do(t, "GET", ts.URL+"/healthz", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz = %d, want 200", resp.StatusCode)
	}

	// Push every device; each returns the ingest result.
	for name, raw := range snaps {
		resp, body := do(t, "POST", ts.URL+"/snapshot/"+name, string(raw))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /snapshot/%s = %d: %s", name, resp.StatusCode, body)
		}
		var res IngestResult
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatalf("ingest response: %v", err)
		}
		if res.Op != "ingest" || res.Audit == nil {
			t.Fatalf("ingest response %+v", res)
		}
	}

	// Empty body is a 400; an unparseable config is a 422 but recorded.
	if resp, _ := do(t, "POST", ts.URL+"/snapshot/fleet-0000", ""); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty POST = %d, want 400", resp.StatusCode)
	}
	resp, body := do(t, "POST", ts.URL+"/snapshot/broken", "%% nonsense %%\n")
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("garbage POST = %d: %s", resp.StatusCode, body)
	}
	// The broken device's pairs are parse errors: 422 from /report.
	if resp, _ = do(t, "GET", ts.URL+"/report/broken/fleet-0000", ""); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("GET /report with failed device = %d, want 422", resp.StatusCode)
	}
	if resp, _ = do(t, "DELETE", ts.URL+"/snapshot/broken", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE = %d, want 200", resp.StatusCode)
	}

	// Identical re-push is a no-op.
	resp, body = do(t, "POST", ts.URL+"/snapshot/fleet-0000", string(snaps["fleet-0000"]))
	var res IngestResult
	json.Unmarshal(body, &res)
	if resp.StatusCode != http.StatusOK || res.Op != "noop" {
		t.Fatalf("identical push: %d %+v", resp.StatusCode, res)
	}

	// Reports: both orientations name the same canonical pair.
	_, ab := do(t, "GET", ts.URL+"/report/fleet-0000/fleet-0001", "")
	_, ba := do(t, "GET", ts.URL+"/report/fleet-0001/fleet-0000", "")
	var pab, pba pairPayload
	json.Unmarshal(ab, &pab)
	json.Unmarshal(ba, &pba)
	if pab.Name == "" || pab.Name != pba.Name {
		t.Fatalf("orientation: %q vs %q", pab.Name, pba.Name)
	}
	if resp, _ = do(t, "GET", ts.URL+"/report/fleet-0000/fleet-0000", ""); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("self pair = %d, want 400", resp.StatusCode)
	}
	if resp, _ = do(t, "GET", ts.URL+"/report/fleet-0000/ghost", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown device = %d, want 404", resp.StatusCode)
	}

	// Fleet state: all four devices, classes non-empty.
	_, body = do(t, "GET", ts.URL+"/fleet", "")
	var sum FleetSummary
	if err := json.Unmarshal(body, &sum); err != nil {
		t.Fatalf("fleet JSON: %v", err)
	}
	if len(sum.Devices) != 4 || len(sum.Classes) == 0 {
		t.Fatalf("fleet summary %+v", sum)
	}

	// Snapshot round-trip.
	_, body = do(t, "GET", ts.URL+"/snapshot/fleet-0002", "")
	if string(body) != string(snaps["fleet-0002"]) {
		t.Fatal("snapshot round-trip mismatch")
	}

	// Observability endpoints ride the same mux, and the session
	// instruments are visible.
	resp, body = do(t, "GET", ts.URL+"/metrics", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	for _, metric := range []string{
		"campion_session_snapshots_total",
		"campion_session_devices",
		"campion_session_rediff_ratio_percent",
		"campion_session_rep_computed_total",
	} {
		if !strings.Contains(string(body), metric) {
			t.Errorf("/metrics missing %s", metric)
		}
	}
	if resp, _ = do(t, "GET", ts.URL+"/runs", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /runs = %d", resp.StatusCode)
	}
	if resp, _ = do(t, "GET", ts.URL+"/", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET / = %d", resp.StatusCode)
	}
}

// TestServerBodyLimit: oversized snapshots are rejected with 413.
func TestServerBodyLimit(t *testing.T) {
	reg := obs.NewRegistry()
	srv := &Server{Session: New(Options{Metrics: reg}), MaxBody: 64}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, _ := do(t, "POST", ts.URL+"/snapshot/r1", strings.Repeat("x", 1024))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized POST = %d, want 413", resp.StatusCode)
	}
}

// twoPassReport answers GET /report/{a}/{b} in two passes through
// encoding/json: campion.JSON renders the report, the payload carries
// those bytes as a json.RawMessage, and a fresh indenting Encoder
// re-validates and re-indents them. campion.JSON and the handler append
// the report with the same present.AppendJSON, whose bytes present's
// TestAppendJSONMatchesReflect pins to reflection, so this reference
// checks the envelope around the report and its one-level nesting.
func twoPassReport(t *testing.T, s *Session, a, b string) (int, []byte) {
	t.Helper()
	encode := func(status int, v any) (int, []byte) {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
		return status, buf.Bytes()
	}
	res, err := s.Report(a, b)
	if err != nil {
		return encode(errStatus(err), map[string]string{"error": err.Error()})
	}
	var payload struct {
		Name    string          `json:"name"`
		Diffs   int             `json:"diffs"`
		Report  json.RawMessage `json:"report,omitempty"`
		Error   string          `json:"error,omitempty"`
		ErrKind string          `json:"err_kind,omitempty"`
	}
	payload.Name = res.Name
	if res.Err != nil {
		payload.Error = res.Err.Error()
		payload.ErrKind = campion.ErrKind(res.Err)
		return encode(http.StatusUnprocessableEntity, payload)
	}
	payload.Diffs = res.Report.TotalDifferences()
	body, err := campion.JSON(res.Report)
	if err != nil {
		t.Fatal(err)
	}
	payload.Report = body
	return encode(http.StatusOK, payload)
}

// TestReportBodyMatchesTwoPass pins GET /report's status and body byte
// for byte to the two-pass encoding, over the golden corpus, the bench
// fleet's cross-template pairs, an empty report, text that JSON must
// escape, and a device that failed to parse.
func TestReportBodyMatchesTwoPass(t *testing.T) {
	check := func(t *testing.T, s *Session, a, b string) []byte {
		t.Helper()
		rec := httptest.NewRecorder()
		(&Server{Session: s}).Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/report/"+a+"/"+b, nil))
		code, want := twoPassReport(t, s, a, b)
		if rec.Code != code || !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("GET /report/%s/%s = %d, want %d\n--- got ---\n%s\n--- want ---\n%s", a, b, rec.Code, code, rec.Body.Bytes(), want)
		}
		return want
	}

	t.Run("golden", func(t *testing.T) {
		dirs, err := filepath.Glob("../campiontest/golden/*/b.cfg")
		if err != nil || len(dirs) < 10 {
			t.Fatalf("golden corpus: %d pairs, %v", len(dirs), err)
		}
		for _, b := range dirs {
			dir := filepath.Dir(b)
			rawA, errA := os.ReadFile(filepath.Join(dir, "a.cfg"))
			rawB, errB := os.ReadFile(b)
			if errA != nil || errB != nil {
				t.Fatal(errA, errB)
			}
			name := filepath.Base(dir)
			s := New(Options{})
			seedSession(t, s, map[string][]byte{name + "-a": rawA, name + "-b": rawB})
			check(t, s, name+"-a", name+"-b")
			check(t, s, name+"-b", name+"-a")
		}
	})

	t.Run("fleet", func(t *testing.T) {
		snaps, names := benchSnapshots()
		// Route-map names land in the report's policy and text fields:
		// give one device a name holding HTML-sensitive bytes, U+2028
		// and a byte that is not valid UTF-8.
		snaps["fleet-0000"] = bytes.ReplaceAll(snaps["fleet-0000"], []byte("CUSTOMER-IN"), []byte("CUSTOMER<&>\u2028\xff-IN"))
		snaps["broken"] = []byte("%% nonsense %%\n")
		s := New(Options{})
		seedSession(t, s, snaps)

		pairs := benchReportPairs(names)
		want := make([][]byte, len(pairs))
		for i, p := range pairs {
			want[i] = check(t, s, p[0], p[1])
		}
		all := bytes.Join(want, nil)
		for _, esc := range []string{`\u003c`, `\u003e`, `\u0026`, `\u2028`, `\ufffd`} {
			if !bytes.Contains(all, []byte(esc)) {
				t.Errorf("no report body holds %s", esc)
			}
		}
		// Concurrent reads share the pooled writers; each must still
		// get exactly its own body.
		h := (&Server{Session: s}).Handler()
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := range pairs {
					i := (k + 16*g) % len(pairs)
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/report/"+pairs[i][0]+"/"+pairs[i][1], nil))
					if !bytes.Equal(rec.Body.Bytes(), want[i]) {
						t.Errorf("concurrent GET /report/%s/%s: body differs", pairs[i][0], pairs[i][1])
					}
				}
			}(g)
		}
		wg.Wait()

		sum, err := s.Fleet()
		if err != nil {
			t.Fatal(err)
		}
		same := false
		for _, class := range sum.Classes {
			if len(class) < 2 {
				continue
			}
			if res, _ := s.Report(class[0], class[1]); res.Err != nil || res.Report.TotalDifferences() != 0 {
				t.Fatalf("same-class pair %s/%s: %+v", class[0], class[1], res)
			}
			check(t, s, class[0], class[1])
			same = true
			break
		}
		if !same {
			t.Fatal("no class holds two devices")
		}

		if code, _ := twoPassReport(t, s, "broken", "fleet-0001"); code != http.StatusUnprocessableEntity {
			t.Fatalf("pair with an unparsed device answers %d, want 422", code)
		}
		check(t, s, "broken", "fleet-0001")
		check(t, s, "fleet-0001", "ghost")
		check(t, s, "fleet-0001", "fleet-0001")
	})
}

// TestWriteJSONEncodeFailure: a value that cannot be encoded answers 500
// with the error instead of a partial body under the intended status,
// and the pooled writer encodes the next response cleanly.
func TestWriteJSONEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]any{"ok": 1, "bad": math.NaN()})
	var e map[string]string
	if rec.Code != http.StatusInternalServerError || json.Unmarshal(rec.Body.Bytes(), &e) != nil ||
		!strings.Contains(e["error"], "unsupported value") {
		t.Fatalf("unencodable value: %d %s", rec.Code, rec.Body.Bytes())
	}
	for i := 0; i < 2; i++ {
		rec = httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, map[string]int{"ok": 1})
		if rec.Code != http.StatusOK || rec.Body.String() != "{\n  \"ok\": 1\n}\n" {
			t.Fatalf("after a failed encode: %d %q", rec.Code, rec.Body.Bytes())
		}
	}
}

// discardWriter is a reusable http.ResponseWriter that keeps only the
// status and the body length, so a read's allocations are the handler's.
type discardWriter struct {
	header http.Header
	code   int
	n      int
}

func (w *discardWriter) Header() http.Header { return w.header }

func (w *discardWriter) WriteHeader(code int) { w.code = code }

func (w *discardWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// readAllocSlack bounds what a many-difference read may allocate beyond
// a one-difference read. The two differ by costs that do not grow with
// the report: the per-read RespanReport copies one difference slice for
// the one and up to three for the other, and a pooled buffer that was
// dropped (the race detector drops a quarter of sync.Pool puts) regrows
// to the larger body in more append steps. Both reads allocate 8 times
// without -race; under it they were 3 to 5 apart.
const readAllocSlack = 10

// TestReportReadAllocs: a GET /report read allocates nothing per
// difference, prefix range or text line of its report, because the body
// is appended into a pooled buffer. A read of the cross-template pair
// with the most differences may allocate no more than a read of a pair
// that differs by one static route, plus readAllocSlack.
func TestReportReadAllocs(t *testing.T) {
	snaps := fleetSnapshots(4, 17)
	snaps["edited"] = applyEdit(snaps["fleet-0000"], 0, 1)
	s := New(Options{})
	seedSession(t, s, snaps)
	h := (&Server{Session: s}).Handler()

	read := func(a, b string) (allocs float64, diffs, body int) {
		res, err := s.Report(a, b)
		if err != nil || res.Err != nil {
			t.Fatalf("report %s/%s: %v %v", a, b, err, res.Err)
		}
		req := httptest.NewRequest(http.MethodGet, "/report/"+a+"/"+b, nil)
		w := &discardWriter{header: http.Header{}}
		const runs = 200
		allocs = testing.AllocsPerRun(runs, func() { h.ServeHTTP(w, req) })
		if w.code != http.StatusOK {
			t.Fatalf("GET /report/%s/%s = %d", a, b, w.code)
		}
		return allocs, res.Report.TotalDifferences(), w.n / (runs + 1)
	}

	near, nearDiffs, nearBody := read("edited", "fleet-0000")
	if nearDiffs != 1 {
		t.Fatalf("edited vs fleet-0000: %d differences, want 1", nearDiffs)
	}
	var many float64
	var manyPair string
	manyDiffs, manyBody := 0, 0
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			a, b := fmt.Sprintf("fleet-%04d", i), fmt.Sprintf("fleet-%04d", j)
			if allocs, diffs, body := read(a, b); diffs > manyDiffs {
				many, manyPair, manyDiffs, manyBody = allocs, a+"/"+b, diffs, body
			}
		}
	}
	t.Logf("one difference: %.0f allocs, %d-byte body; %s, %d differences: %.0f allocs, %d-byte body",
		near, nearBody, manyPair, manyDiffs, many, manyBody)
	if manyDiffs < 20 || manyBody < 20*nearBody {
		t.Fatalf("largest report %s has %d differences and a %d-byte body; the test needs a large one", manyPair, manyDiffs, manyBody)
	}
	if many > near+readAllocSlack {
		t.Errorf("a %d-difference read allocates %.0f times, a 1-difference read %.0f: more than %d apart",
			manyDiffs, many, near, readAllocSlack)
	}
}
