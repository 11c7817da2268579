package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/campion"
	"repro/internal/fleet"
	"repro/internal/session"
	"repro/internal/testnets"
)

// fleetClasses is the class count the fleet holds at every step: four
// templates plus four singleton devices.
const fleetClasses = 8

// fleetStep is one write of the fleet-daemon script and the reads that
// follow it.
type fleetStep struct {
	device string
	text   string      // the device's new snapshot
	reads  [][2]string // GET /report/{a}/{b} pairs
	sample []bool      // reads the referee re-derives cold
}

// fleetInputs is the whole seeded script. The daemon's state after it is
// a function of the seed alone, whatever the speed of the program.
type fleetInputs struct {
	names   []string          // device names, sorted
	initial map[string]string // snapshots the session is seeded with
	steps   []fleetStep       // the first sizes.fleetWarm are warm-up
}

// staticEdit is a semantic edit: a static route no other device has.
func staticEdit(block, n int) string {
	return fmt.Sprintf("ip route 198.%d.%d.0 255.255.255.0 10.0.0.254\n", block+n/256, n%256)
}

// genFleet builds the script: a testnets fleet over four templates in
// which one seeded member of each template carries a unique edit, then
// writes that each give one of those four singletons a fresh unique edit
// (round robin, so each is edited equally often), each followed by reads
// of seeded device pairs.
func genFleet(seed int64, sz sizes) *fleetInputs {
	members := testnets.Fleet(testnets.FleetParams{Devices: sz.fleetDevices, Templates: 4, Seed: seed})
	rng := rand.New(rand.NewSource(seed))
	in := &fleetInputs{initial: map[string]string{}}
	byTemplate := make([][]string, 4)
	for _, m := range members {
		in.names = append(in.names, m.Name)
		in.initial[m.Name] = m.Text
		byTemplate[m.Template] = append(byTemplate[m.Template], m.Name)
	}
	sort.Strings(in.names)
	singles := make([]string, 4)
	base := map[string]string{}
	for t, names := range byTemplate {
		singles[t] = names[rng.Intn(len(names))]
		base[singles[t]] = in.initial[singles[t]]
		in.initial[singles[t]] += staticEdit(17, t)
	}
	perm := rng.Perm(4)
	n := len(in.names)
	for w := 0; w < sz.fleetWarm+sz.fleetWrites; w++ {
		dev := singles[perm[w%4]]
		st := fleetStep{device: dev, text: base[dev] + staticEdit(18, w)}
		for r := 0; r < sz.readsPerWrite; r++ {
			a := rng.Intn(n)
			b := rng.Intn(n - 1)
			if b >= a {
				b++
			}
			st.reads = append(st.reads, [2]string{in.names[a], in.names[b]})
			st.sample = append(st.sample, rng.Intn(sz.sampleEvery) == 0)
		}
		in.steps = append(in.steps, st)
	}
	return in
}

// readSample is a read the referee re-derives: the pair, both devices'
// snapshots at the time of the read, and the response body.
type readSample struct {
	a, b         string
	textA, textB string
	body         []byte
}

// fleetRun is the daemon under test plus what the script left behind.
type fleetRun struct {
	in    *fleetInputs
	store *campion.FleetStore
	sess  *session.Session
	h     http.Handler
	cur   map[string]string // each device's current snapshot

	writes   []response // measured write responses, for the referee
	badReads int        // reads that did not answer 200
	reads    int
	samples  []readSample
}

type response struct {
	code int
	body []byte
}

// setupFleet seeds a session with the fleet, runs the cold audit, and
// replays the script's warm-up steps.
func setupFleet(cfg config) (*fleetRun, error) {
	in := genFleet(cfg.seed, cfg.size)
	r := &fleetRun{in: in, store: campion.OpenMemFleetStore(), cur: map[string]string{}}
	r.sess = session.New(session.Options{
		Diff:  campion.BatchOptions{RunLog: campion.DefaultRunLog()},
		Store: r.store,
	})
	ctx := context.Background()
	for _, n := range in.names {
		r.cur[n] = in.initial[n]
		if _, err := r.sess.Ingest(ctx, n, []byte(in.initial[n]), "seed", false); err != nil {
			return nil, err
		}
	}
	st, err := r.sess.Audit(ctx)
	if err != nil {
		return nil, err
	}
	if st.Classes != fleetClasses || st.Failed != 0 {
		return nil, fmt.Errorf("cold audit: %d classes, %d failed devices", st.Classes, st.Failed)
	}
	r.h = (&session.Server{Session: r.sess}).Handler()
	for _, step := range in.steps[:cfg.size.fleetWarm] {
		if code, body := r.serve(http.MethodPost, "/snapshot/"+step.device, step.text); code != http.StatusOK {
			return nil, fmt.Errorf("warm-up write %s: %d %s", step.device, code, body)
		}
		r.cur[step.device] = step.text
		for _, p := range step.reads {
			if code, body := r.serve(http.MethodGet, "/report/"+p[0]+"/"+p[1], ""); code != http.StatusOK {
				return nil, fmt.Errorf("warm-up read %s/%s: %d %s", p[0], p[1], code, body)
			}
		}
	}
	return r, nil
}

// serve sends one request through the daemon's handler in-process.
func (r *fleetRun) serve(method, path, body string) (int, []byte) {
	rec := httptest.NewRecorder()
	r.h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// measure replays the rest of the script: each op is a write (POST
// /snapshot, returning after the re-audit) followed by its reads (GET
// /report). Only the write has a latency; its reads run between writes,
// as a client checking the fleet would run them, so the loop's wall and
// CPU time — ops_per_s and cpu_ms_per_op — include them. In a traced run
// every other write and its reads are traced and replayed layer by layer;
// their spans carry op ids from op0 on.
func (r *fleetRun) measure(tr *tracer, lt *layerTally, warm, op0 int) loopStats {
	var ls loopStats
	storeBefore := r.store.Stats()
	clk := startClock()
	for w := warm; w < len(r.in.steps); w++ {
		st := &r.in.steps[w]
		traced := tr != nil && w%2 == 1
		var t *tracer
		var a0 uint64
		if traced {
			t = tr
		} else if tr != nil {
			a0 = allocBytes()
		}
		req := httptest.NewRequest(http.MethodPost, "/snapshot/"+st.device, strings.NewReader(st.text))
		rec := httptest.NewRecorder()
		op := op0 + w
		sp := t.begin(op, 0, "op")
		start := time.Now()
		r.h.ServeHTTP(rec, req)
		d := ms(time.Since(start))
		t.end(sp)
		r.cur[st.device] = st.text
		r.writes = append(r.writes, response{rec.Code, rec.Body.Bytes()})
		if traced {
			lt.tracedMS = append(lt.tracedMS, d)
			r.replayWrite(tr, lt, op, st)
		} else {
			ls.opMS = append(ls.opMS, d)
		}
		for j, p := range st.reads {
			code, body := r.serve(http.MethodGet, "/report/"+p[0]+"/"+p[1], "")
			r.reads++
			if code != http.StatusOK {
				r.badReads++
			} else if st.sample[j] {
				r.samples = append(r.samples, readSample{a: p[0], b: p[1],
					textA: r.cur[p[0]], textB: r.cur[p[1]], body: body})
			}
			if traced {
				r.replayRead(tr, op, p)
			}
		}
		if tr != nil && !traced {
			lt.allocs += allocBytes() - a0
			lt.untraced++
		}
	}
	clk.stop(&ls)
	if lt != nil {
		after := r.store.Stats()
		lt.storeHits += after.ReportHits + after.HashHits - storeBefore.ReportHits - storeBefore.HashHits
		lt.storeMisses += after.ReportMisses + after.HashMisses - storeBefore.ReportMisses - storeBefore.HashMisses
	}
	return ls
}

// replayWrite re-runs, sequentially and under spans, the per-write work
// of the layers below the handler: parsing the pushed snapshot, hashing
// it with a fresh Hasher as each audit's hashing worker has, and the
// rep-pair diffs the audit re-ran — the edited device's class against
// every other class's representative — each followed by its stage replay.
func (r *fleetRun) replayWrite(tr *tracer, lt *layerTally, op int, st *fleetStep) {
	root := tr.begin(op, 0, "replay")
	defer tr.end(root)
	sp := tr.begin(op, root, "parse")
	cfg, err := campion.Parse(st.device, st.text)
	tr.end(sp)
	if err != nil {
		return
	}
	sp = tr.begin(op, root, "fleet.hash")
	fleet.NewHasher().DeviceHash(cfg)
	tr.end(sp)
	sum, err := r.sess.Fleet()
	if err != nil {
		return
	}
	for _, cl := range sum.Classes {
		a, b := st.device, cl[0]
		if a == b {
			continue
		}
		if a > b { // the daemon orients pairs by sorted device name
			a, b = b, a
		}
		c1, err1 := campion.Parse(a, r.cur[a])
		c2, err2 := campion.Parse(b, r.cur[b])
		if err1 != nil || err2 != nil {
			continue
		}
		sp := tr.begin(op, root, "core.diff")
		rep, err := campion.Diff(c1, c2, campion.Options{})
		tr.end(sp)
		if err != nil {
			continue
		}
		for _, s := range rep.Stats {
			lt.stripes += s.Stripes
		}
		lt.counts.add(replayStages(tr, op, c1, c2))
	}
}

// replayRead re-runs the rendering of a read: the session's expanded
// pair report, rendered as JSON under a span.
func (r *fleetRun) replayRead(tr *tracer, op int, p [2]string) {
	res, err := r.sess.Report(p[0], p[1])
	if err != nil || res.Report == nil {
		return
	}
	sp := tr.begin(op, 0, "present")
	campion.JSON(res.Report)
	tr.end(sp)
}

// referee checks the script's answers after the timed loop: every write
// answered 200 with an audit of the whole fleet in eight classes, every
// read answered 200 (counted as it was served), and each sampled read
// equals a cold campion.Diff of the two snapshots current when it was
// served. It returns the failed ops and the decoded audits.
func (r *fleetRun) referee() (failed int, audits []session.AuditStats) {
	failed = r.badReads
	for _, w := range r.writes {
		var res session.IngestResult
		if err := json.Unmarshal(w.body, &res); err != nil || w.code != http.StatusOK || res.Audit == nil ||
			res.Audit.Classes != fleetClasses || res.Audit.Failed != 0 || res.Audit.Devices != len(r.in.names) {
			failed++
			continue
		}
		audits = append(audits, *res.Audit)
	}
	for _, s := range r.samples {
		if !coldMatches(s) {
			failed++
		}
	}
	return failed, audits
}

// coldMatches re-derives one sampled read from scratch.
func coldMatches(s readSample) bool {
	a, b, ta, tb := s.a, s.b, s.textA, s.textB
	if a > b { // the daemon orients pairs by sorted device name
		a, b, ta, tb = b, a, tb, ta
	}
	var got struct {
		Name   string          `json:"name"`
		Diffs  int             `json:"diffs"`
		Report json.RawMessage `json:"report"`
	}
	if err := json.Unmarshal(s.body, &got); err != nil {
		return false
	}
	c1, err1 := campion.Parse(a, ta)
	c2, err2 := campion.Parse(b, tb)
	if err1 != nil || err2 != nil {
		return false
	}
	rep, err := campion.Diff(c1, c2, campion.Options{})
	if err != nil {
		return false
	}
	want, err := campion.JSON(rep)
	if err != nil {
		return false
	}
	var g, wt bytes.Buffer
	if json.Compact(&g, got.Report) != nil || json.Compact(&wt, want) != nil {
		return false
	}
	return got.Name == a+" vs "+b && got.Diffs == rep.TotalDifferences() && bytes.Equal(g.Bytes(), wt.Bytes())
}

// runFleetDaemon replays the whole script on a fresh daemon until
// cfg.seconds of measured loop have passed. Each replay ends in the same
// state, so neither that state nor peak_rss_mb depends on how many
// replays a run fits; the set-ups between replays are not timed.
func runFleetDaemon(cfg config) (*result, error) {
	r, setupS, err := repeatSetup(cfg.size.setupReps, func() (*fleetRun, error) { return setupFleet(cfg) })
	if err != nil {
		return nil, err
	}
	var tr *tracer
	var lt layerTally
	if cfg.trace {
		tr = newTracer()
	}
	var ls loopStats
	attempted, failed := 0, 0
	for op0 := 0; ; op0 += len(r.in.steps) {
		part := r.measure(tr, &lt, cfg.size.fleetWarm, op0)
		ls.opMS = append(ls.opMS, part.opMS...)
		ls.wall += part.wall
		ls.cpu += part.cpu
		ls.peakMB = part.peakMB // a high-water mark: the last reading is the largest
		f, audits := r.referee()
		attempted += len(r.writes) + r.reads
		failed += f
		for _, a := range audits {
			lt.audits++
			lt.repPairs += a.RepPairs
			lt.repComputed += a.RepComputed
		}
		if ls.wall >= cfg.seconds {
			break
		}
		r = nil
		runtime.GC() // the old daemon goes before the new one is built
		if r, err = setupFleet(cfg); err != nil {
			return nil, err
		}
	}
	res := newResult(attempted, failed)
	if !cfg.trace {
		return res, endToEnd(res, setupS, ls)
	}
	// The daemon's state is what runtime.heap_live_mb measures, so it must
	// stay reachable until the per-layer metrics are read.
	defer runtime.KeepAlive(r)
	return res, finishTraced(cfg, "fleet-daemon", res, tr, &lt, ls.opMS)
}
