package session

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"repro/campion"
	"repro/internal/obs"
	"repro/internal/present"
)

// Server is the daemon's HTTP surface over a Session: snapshot ingest,
// report and fleet queries, and (when Obs is set) the observability
// endpoints, all on one mux. Construct it, then serve Handler().
type Server struct {
	Session *Session
	// Obs, when non-nil, mounts /metrics, /runs, and /debug/pprof/ from
	// the observability server onto the same mux.
	Obs *obs.Server
	// MaxBody bounds snapshot request bodies in bytes; 0 means the
	// 8 MiB default (a router config is tens of kilobytes).
	MaxBody int64
}

// Handler returns the daemon's route mux.
//
//	GET    /healthz             liveness probe
//	POST   /snapshot/{device}   ingest a snapshot (body: raw config)
//	PUT    /snapshot/{device}   alias for POST
//	GET    /snapshot/{device}   current raw snapshot
//	DELETE /snapshot/{device}   drop the device and re-audit
//	GET    /fleet               audited fleet state (JSON)
//	GET    /report/{a}/{b}      expanded pair report (JSON)
//
// See README.md's operations guide for the status codes each endpoint
// returns; scripts/serve_smoke.sh exercises them against this handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("POST /snapshot/{device}", s.ingest)
	mux.HandleFunc("PUT /snapshot/{device}", s.ingest)
	mux.HandleFunc("GET /snapshot/{device}", s.getSnapshot)
	mux.HandleFunc("DELETE /snapshot/{device}", s.remove)
	mux.HandleFunc("GET /fleet", s.fleet)
	mux.HandleFunc("GET /report/{a}/{b}", s.report)
	if s.Obs != nil {
		oh := s.Obs.Handler()
		mux.Handle("GET /metrics", oh)
		mux.Handle("GET /runs", oh)
		mux.Handle("GET /debug/pprof/", oh)
	}
	mux.HandleFunc("GET /{$}", s.index)
	return mux
}

// errStatus maps session sentinels onto HTTP status codes.
func errStatus(err error) int {
	switch {
	case errors.Is(err, ErrBadName):
		return http.StatusBadRequest
	case errors.Is(err, ErrUnknownDevice):
		return http.StatusNotFound
	case errors.Is(err, ErrNoAudit):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// jsonWriter is a response body buffer and the indenting encoder that
// writes into it.
type jsonWriter struct {
	buf []byte
	enc *json.Encoder
}

// Write appends the encoder's output to the body.
func (jw *jsonWriter) Write(p []byte) (int, error) {
	jw.buf = append(jw.buf, p...)
	return len(p), nil
}

// jsonWriters pools the buffers every JSON response is written into. A
// GET /report 200 body is appended into the buffer directly; every other
// response is encoded by the writer's encoder. A pooled buffer keeps its
// capacity, so a read does not regrow a report body from empty. Every
// encoder is configured once, with indent "  " and the default HTML
// escaping, which present.AppendJSON reproduces, and never changed, so
// which writer serves a response never changes its bytes.
var jsonWriters = sync.Pool{New: func() any {
	jw := new(jsonWriter)
	jw.enc = json.NewEncoder(jw)
	jw.enc.SetIndent("", "  ")
	return jw
}}

// writeJSON encodes v as the response body. The body is encoded whole
// before the status goes out, so a value that fails to encode answers
// 500 with the error instead of a truncated body under status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	jw := jsonWriters.Get().(*jsonWriter)
	defer jsonWriters.Put(jw)
	jw.buf = jw.buf[:0]
	if err := jw.enc.Encode(v); err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeBody(w, status, jw.buf)
}

func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *Server) ingest(w http.ResponseWriter, r *http.Request) {
	max := s.MaxBody
	if max <= 0 {
		max = 8 << 20
	}
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, max))
	if err != nil {
		writeErr(w, http.StatusRequestEntityTooLarge, err)
		return
	}
	if len(raw) == 0 {
		writeErr(w, http.StatusBadRequest, errors.New("empty snapshot body"))
		return
	}
	res, err := s.Session.Ingest(r.Context(), r.PathValue("device"), raw, "push", true)
	if err != nil {
		writeErr(w, errStatus(err), err)
		return
	}
	// A snapshot that failed to parse is recorded (its pairs degrade to
	// parse errors) but flagged: 422 tells the pusher the config itself
	// is the problem, not the request.
	if res.ParseError != "" {
		writeJSON(w, http.StatusUnprocessableEntity, res)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) getSnapshot(w http.ResponseWriter, r *http.Request) {
	raw, ok := s.Session.Snapshot(r.PathValue("device"))
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("%w: %q", ErrUnknownDevice, r.PathValue("device")))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(raw)
}

func (s *Server) remove(w http.ResponseWriter, r *http.Request) {
	res, err := s.Session.Remove(r.Context(), r.PathValue("device"), true)
	if err != nil {
		writeErr(w, errStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) fleet(w http.ResponseWriter, _ *http.Request) {
	sum, err := s.Session.Fleet()
	if err != nil {
		writeErr(w, errStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, sum)
}

// pairPayload is the GET /report/{a}/{b} body of a pair that failed:
// the pair name, a zero difference count, and the pair's structured
// error. A pair that compared answers the same name and diffs members
// followed by its report, appended by report itself.
type pairPayload struct {
	Name    string `json:"name"`
	Diffs   int    `json:"diffs"`
	Error   string `json:"error,omitempty"`
	ErrKind string `json:"err_kind,omitempty"`
}

func (s *Server) report(w http.ResponseWriter, r *http.Request) {
	a, b := r.PathValue("a"), r.PathValue("b")
	res, err := s.Session.Report(a, b)
	if err != nil {
		writeErr(w, errStatus(err), err)
		return
	}
	if res.Err != nil {
		// The pair itself failed (a device that never parsed, a budget
		// abort): that is state, not a bad request — 422 with the
		// structured error.
		writeJSON(w, http.StatusUnprocessableEntity, pairPayload{
			Name: res.Name, Error: res.Err.Error(), ErrKind: campion.ErrKind(res.Err),
		})
		return
	}
	// The bytes an indenting json.Encoder writes for {name, diffs,
	// report}, with the report appended one level deep.
	jw := jsonWriters.Get().(*jsonWriter)
	defer jsonWriters.Put(jw)
	body := present.AppendJSONString(append(jw.buf[:0], "{\n  \"name\": "...), res.Name)
	body = strconv.AppendInt(append(body, ",\n  \"diffs\": "...), int64(res.Report.TotalDifferences()), 10)
	body = present.AppendJSON(append(body, ",\n  \"report\": "...), res.Report, 1)
	jw.buf = append(body, "\n}\n"...)
	writeBody(w, http.StatusOK, jw.buf)
}

func (s *Server) index(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	io.WriteString(w, `<html><head><title>campion daemon</title></head><body>
<h1>campion daemon</h1>
<ul>
<li>POST /snapshot/{device} — push a configuration snapshot</li>
<li>GET /snapshot/{device} — current raw snapshot</li>
<li>DELETE /snapshot/{device} — drop a device</li>
<li><a href="/fleet">/fleet</a> — audited fleet state (JSON)</li>
<li>GET /report/{a}/{b} — expanded pair report (JSON)</li>
<li><a href="/metrics">/metrics</a> — Prometheus exposition</li>
<li><a href="/runs">/runs</a> — recent runs (JSON)</li>
<li><a href="/debug/pprof/">/debug/pprof/</a> — Go runtime profiles</li>
<li><a href="/healthz">/healthz</a> — liveness</li>
</ul>
</body></html>
`)
}
