package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"

	"mrlegal/internal/core"
	"mrlegal/internal/design"
	"mrlegal/internal/iodesign"
	"mrlegal/internal/jobq"
	"mrlegal/internal/service"
)

// The serve-mixed workload: an in-process service.Server with its
// default configuration, driven over loopback HTTP by two closed-loop
// clients at once. Client A streams delta frames into one ECO session;
// client B submits bursts of whole-design jobs, larger than the worker
// pool so they queue, and polls each to a terminal state.
const (
	sessionCells = 20_000
	jobCells     = 3_000
	jobDesigns   = 10
	frameDeltas  = 10
	pollInterval = 5 * time.Millisecond
	// framesPerSecond sets client A's fixed frame count: the window's
	// worth at about the rate a frame round trip allows on a 2-CPU
	// machine, so every run sends the same frames.
	framesPerSecond = 400
	// burstEvery paces client B: one burst starts every burstEvery (at
	// once if the previous one ran late), so every run submits the same
	// number of jobs and the server retains the same number of results.
	burstEvery = 400 * time.Millisecond
)

// jobBurst is the number of jobs client B submits at once: twice the
// default worker pool (one worker per CPU), so half of each burst waits
// in the queue.
var jobBurst = 2 * runtime.NumCPU()

// jobInput is one job design and its direct library legalization.
type jobInput struct {
	text, body    []byte // design text and the POST /v1/jobs body
	checksum      string
	disp          []float64
	before, after float64
}

// serveInputs is everything serve-mixed generates from the seed.
type serveInputs struct {
	sessionText, sessionBody []byte
	// baseline is the session design legalized directly by the library
	// with the server's configuration; the session must start from it.
	baseline *design.Design
	jobs     []jobInput
}

// serverEngineConfig is the legalizer configuration the default server
// runs jobs and sessions with (service.Config.BaseCfg == nil).
func serverEngineConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Workers = 1
	return cfg
}

func submitBody(text []byte) ([]byte, error) {
	return json.Marshal(service.SubmitRequest{DesignText: string(text)})
}

// legalizeDirect parses text and legalizes it with the server's engine
// configuration, as a library caller would.
func legalizeDirect(text []byte) (*design.Design, float64, float64, error) {
	d, nl, err := iodesign.Read(bytes.NewReader(text))
	if err != nil {
		return nil, 0, 0, err
	}
	before := nl.HPWL(d)
	l, err := core.NewLegalizer(d, serverEngineConfig())
	if err != nil {
		return nil, 0, 0, err
	}
	rep, err := l.LegalizeBestEffort(context.Background())
	if err != nil {
		return nil, 0, 0, err
	}
	if len(rep.Failed) > 0 {
		return nil, 0, 0, fmt.Errorf("%d cells left unplaced", len(rep.Failed))
	}
	return d, before, nl.HPWL(d), nil
}

func genServeInputs(seed int64) (*serveInputs, error) {
	in := &serveInputs{}
	var err error
	if in.sessionText, err = designText("eco", sessionCells, 0.6, subSeed(seed, 1)); err != nil {
		return nil, err
	}
	if in.sessionBody, err = submitBody(in.sessionText); err != nil {
		return nil, err
	}
	if in.baseline, _, _, err = legalizeDirect(in.sessionText); err != nil {
		return nil, fmt.Errorf("session design: %w", err)
	}
	for j := 0; j < jobDesigns; j++ {
		var job jobInput
		if job.text, err = designText(fmt.Sprintf("job%d", j), jobCells, 0.6, subSeed(seed, 10+j)); err != nil {
			return nil, err
		}
		if job.body, err = submitBody(job.text); err != nil {
			return nil, err
		}
		d, before, after, err := legalizeDirect(job.text)
		if err != nil {
			return nil, fmt.Errorf("job design %d: %w", j, err)
		}
		job.checksum = fmt.Sprintf("%016x", d.PlacementChecksum())
		job.disp = dispSites(d, nil)
		job.before, job.after = before, after
		in.jobs = append(in.jobs, job)
	}
	return in, nil
}

// sameInputs reports whether two set-ups generated identical inputs.
func sameInputs(a, b *serveInputs) bool {
	if !bytes.Equal(a.sessionText, b.sessionText) || len(a.jobs) != len(b.jobs) {
		return false
	}
	for j := range a.jobs {
		if !bytes.Equal(a.jobs[j].text, b.jobs[j].text) {
			return false
		}
	}
	return true
}

// liveServer is a started server with an open ECO session.
type liveServer struct {
	srv     *service.Server
	base    string
	session string
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

// startServer starts a default server and opens the ECO session. The
// session's initial placement must match the direct legalization.
func startServer(c *http.Client, in *serveInputs) (*liveServer, error) {
	srv, err := service.New(service.Config{})
	if err != nil {
		return nil, err
	}
	if err := srv.Start(); err != nil {
		srv.Close()
		return nil, err
	}
	ls := &liveServer{srv: srv, base: "http://" + srv.Addr()}
	var sj service.SessionJSON
	if status, err := doJSON(c, "POST", ls.base+"/v1/sessions", in.sessionBody, &sj); err != nil || status != http.StatusCreated {
		srv.Close()
		return nil, fmt.Errorf("open session: status %d: %v", status, err)
	}
	ls.session = sj.ID
	if want := fmt.Sprintf("%016x", in.baseline.PlacementChecksum()); sj.Report.PlacementChecksum != want {
		srv.Close()
		return nil, fmt.Errorf("session opened with placement %s, direct legalization gives %s", sj.Report.PlacementChecksum, want)
	}
	return ls, nil
}

// doJSON sends one request and decodes a JSON response into v.
func doJSON(c *http.Client, method, url string, body []byte, v any) (int, error) {
	var r io.Reader
	if body != nil {
		r = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, r)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if v == nil {
		_, err = io.Copy(io.Discard, resp.Body)
	} else {
		err = json.NewDecoder(resp.Body).Decode(v)
	}
	return resp.StatusCode, err
}

func runServe(opt options) (*outcome, error) {
	out := &outcome{values: map[string]float64{}}
	v := out.values
	ca, cb := newClient(), newClient()

	var (
		in    *serveInputs
		ls    *liveServer
		setup setupTimes
	)
	defer func() {
		if ls != nil {
			ls.srv.Close() // error paths only: the success path closes it and checks the error
		}
	}()
	for i := 0; i < setupRepeats; i++ {
		if ls != nil {
			err := ls.srv.Close()
			ls = nil
			if err != nil {
				return nil, fmt.Errorf("set-up: server close: %w", err)
			}
		}
		setup.start()
		next, err := genServeInputs(opt.seed)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if ls, err = startServer(ca, next); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setup.stop()
		out.check(in == nil || sameInputs(in, next), "set-up %d generated different inputs from the same seed", i)
		in = next
	}
	setup.values(v)

	var tr *tracer
	if opt.trace {
		tr = newTracer()
	}
	eco := &ecoClient{gen: newEcoGen(in.baseline, subSeed(opt.seed, 2)), trace: tr}
	jobs := &jobClient{in: in, trace: tr}

	startTimedPhase()
	g0, steal0 := readGoCounters(), stealSeconds()
	begin, cpu0 := time.Now(), processCPU()
	var wg sync.WaitGroup
	var ecoErr, jobErr error
	wg.Add(2)
	go func() { defer wg.Done(); ecoErr = eco.run(ca, ls, opt.seconds) }()
	go func() { defer wg.Done(); jobErr = jobs.run(cb, ls.base, begin, opt.seconds) }()
	wg.Wait()
	v["cpu_s"] = (processCPU() - cpu0).Seconds()
	v["peak_rss_mb"] = peakRSSMB()
	v["steal_s"] = stealSeconds() - steal0
	g0.perUnit(readGoCounters(), len(eco.rtt), v)
	if ecoErr != nil {
		return nil, fmt.Errorf("eco client: %w", ecoErr)
	}
	if jobErr != nil {
		return nil, fmt.Errorf("job client: %w", jobErr)
	}

	// The session must still be legal and a fixed point of full
	// legalization after the stream.
	var cp service.CheckpointJSON
	status, err := doJSON(ca, "POST", ls.base+"/v1/sessions/"+ls.session+"/checkpoint?oracle=1", nil, &cp)
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("checkpoint: status %d: %v", status, err)
	}
	out.check(cp.Legal && cp.Violations == 0, "session has %d violations after the stream", cp.Violations)
	out.check(cp.FixedPoint != nil && *cp.FixedPoint, "session placement is not a fixed point of full legalization")
	out.check(eco.last == cp.PlacementChecksum,
		"checkpoint checksum %s differs from the last frame's", cp.PlacementChecksum)
	if status, err := doJSON(ca, "DELETE", ls.base+"/v1/sessions/"+ls.session, nil, nil); err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("close session: status %d: %v", status, err)
	}
	err = ls.srv.Close()
	ls = nil
	if err != nil {
		return nil, fmt.Errorf("server close: %w", err)
	}
	out.failures = append(out.failures, jobs.mismatches...)

	out.attempted = int64(len(eco.rtt) + eco.rollbacks + jobs.submitted)
	out.failed = int64(eco.rollbacks + jobs.failed + jobs.non2xx)
	v["fail_frac"] = ratio(float64(out.failed), float64(out.attempted))
	v["eco_rtt_p50_ms"] = percentile(eco.rtt, 50)
	v["eco_rtt_p99_ms"] = percentile(eco.rtt, 99)
	v["job_p50_ms"] = percentile(jobs.latency, 50)
	v["job_p90_ms"] = percentile(jobs.latency, 90)
	for _, m := range []string{"eco_rtt_p50_ms", "eco_rtt_p99_ms", "job_p50_ms", "job_p90_ms"} {
		v["service."+m] = v[m]
	}
	var disp []float64
	var before, after float64
	for _, j := range in.jobs {
		disp = append(disp, j.disp...)
		before += j.before
		after += j.after
	}
	quality(disp, before, after, v)

	if opt.trace {
		if err := replay(in, eco, jobs, tr, out); err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		if err := tr.write("serve-mixed", opt.seed); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	return out, nil
}

// ecoClient streams delta frames into the session over one connection.
// Each frame is sent as soon as the previous response frame arrived.
type ecoClient struct {
	gen   *ecoGen
	trace *tracer // nil in an untraced run

	rtt       []float64 // per-frame round trip, ms
	traced    []bool    // whether the frame recorded a span
	rollbacks int
	payloads  [][]byte // sent frames, kept for the traced replay
	sums      []string // each response frame's placement checksum, ditto
	last      string   // the last response frame's placement checksum
}

func (e *ecoClient) run(c *http.Client, ls *liveServer, window time.Duration) error {
	pr, pw := io.Pipe()
	req, err := http.NewRequest("POST", ls.base+"/v1/sessions/"+ls.session+"/deltas", pr)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/vnd.mrlegal.frames")
	type doResult struct {
		resp *http.Response
		err  error
	}
	done := make(chan doResult, 1)
	go func() {
		resp, err := c.Do(req)
		if err != nil {
			pr.CloseWithError(err)
		}
		done <- doResult{resp, err}
	}()
	var resp *http.Response
	defer func() {
		// Ending the request body ends the stream; then drain the reply
		// and wait for the request goroutine.
		pw.Close()
		if resp == nil {
			resp = (<-done).resp
		}
		if resp != nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()

	var hdr [4]byte
	var buf []byte
	frames := max(int(window.Seconds()*framesPerSecond), 1)
	for k := 0; k < frames; k++ {
		payload, deltas, err := e.gen.next()
		if err != nil {
			return err
		}
		frame := make([]byte, 4+len(payload))
		binary.BigEndian.PutUint32(frame, uint32(len(payload)))
		copy(frame[4:], payload)

		var t *tracer
		if k%2 == 1 {
			t = e.trace
		}
		unit := fmt.Sprintf("eco/%d", k)
		start := time.Now()
		root := t.begin("eco.frame", unit, -1)
		if _, err := pw.Write(frame); err != nil {
			return err
		}
		if resp == nil {
			r := <-done
			if r.err != nil {
				return r.err
			}
			resp = r.resp
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("delta stream: status %d", resp.StatusCode)
			}
		}
		if _, err := io.ReadFull(resp.Body, hdr[:]); err != nil {
			return fmt.Errorf("frame %d: %w", k, err)
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if cap(buf) < int(n) {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := io.ReadFull(resp.Body, buf); err != nil {
			return fmt.Errorf("frame %d: %w", k, err)
		}
		t.end(root)
		rtt := time.Since(start)

		var fr service.DeltaFrameJSON
		if err := json.Unmarshal(buf, &fr); err != nil {
			return fmt.Errorf("frame %d: %w", k, err)
		}
		if fr.Error != nil {
			// The batch rolled back and the server ended the stream.
			e.rollbacks++
			return nil
		}
		e.rtt = append(e.rtt, ms(rtt))
		e.traced = append(e.traced, t != nil)
		if err := e.gen.apply(deltas, fr.Results); err != nil {
			return fmt.Errorf("frame %d: %w", k, err)
		}
		e.last = fr.PlacementChecksum
		if e.trace != nil {
			e.payloads = append(e.payloads, payload)
			e.sums = append(e.sums, fr.PlacementChecksum)
		}
	}
	return nil
}

// jobClient submits bursts of jobs on one connection and polls each to
// a terminal state before the next burst, which starts on the next
// burstEvery tick.
type jobClient struct {
	in    *serveInputs
	trace *tracer

	submitted, failed, non2xx, rejected int
	latency, submit                     []float64 // ms
	wait, running                       []float64 // ms, from the job's own timestamps
	mismatches                          []string
}

func (j *jobClient) run(c *http.Client, base string, begin time.Time, window time.Duration) error {
	type pending struct {
		id    string
		input int
		start time.Time
		root  int
	}
	next := 0
	bursts := max(int(window/burstEvery), 1)
	for b := 0; b < bursts; b++ {
		time.Sleep(time.Until(begin.Add(time.Duration(b) * burstEvery)))
		var ps []pending
		for i := 0; i < jobBurst; i++ {
			idx := next % len(j.in.jobs)
			unit := fmt.Sprintf("job/%d", next)
			next++
			start := time.Now()
			root := j.trace.begin("job", unit, -1)
			sub := j.trace.begin("service.submit", unit, root)
			var jj service.JobJSON
			status, err := doJSON(c, "POST", base+"/v1/jobs", j.in.jobs[idx].body, &jj)
			j.trace.end(sub)
			if err != nil {
				return err
			}
			j.submitted++
			j.submit = append(j.submit, ms(time.Since(start)))
			if status != http.StatusAccepted {
				j.non2xx++
				if status == http.StatusTooManyRequests {
					j.rejected++
				}
				j.trace.end(root)
				continue
			}
			ps = append(ps, pending{id: jj.ID, input: idx, start: start, root: root})
		}
		for len(ps) > 0 {
			time.Sleep(pollInterval)
			keep := ps[:0]
			for _, p := range ps {
				var jj service.JobJSON
				status, err := doJSON(c, "GET", base+"/v1/jobs/"+p.id, nil, &jj)
				if err != nil {
					return err
				}
				if status != http.StatusOK {
					j.non2xx++
					j.failed++
					j.trace.end(p.root)
					continue
				}
				if !jj.State.Terminal() {
					keep = append(keep, p)
					continue
				}
				j.trace.end(p.root)
				j.latency = append(j.latency, ms(time.Since(p.start)))
				if jj.Started != nil && jj.Finished != nil {
					j.wait = append(j.wait, ms(jj.Started.Sub(jj.Created)))
					j.running = append(j.running, ms(jj.Finished.Sub(*jj.Started)))
				}
				switch {
				case jj.State != jobq.Succeeded || jj.Report == nil || len(jj.Report.Failed) > 0:
					j.failed++
				case jj.Report.PlacementChecksum != j.in.jobs[p.input].checksum:
					j.mismatches = append(j.mismatches, fmt.Sprintf("job %s: placement %s, direct legalization gives %s",
						p.id, jj.Report.PlacementChecksum, j.in.jobs[p.input].checksum))
				}
			}
			ps = keep
		}
	}
	return nil
}

// replay splits the service path in a traced run. It feeds the frames
// client A sent through the calls the delta handler makes, and each job
// design through the calls the submit handler and the job runner make,
// with spans around each call. The replayed session must reproduce every
// response checksum the server sent.
func replay(in *serveInputs, eco *ecoClient, jobs *jobClient, tr *tracer, out *outcome) error {
	v := out.values
	ctx := context.Background()

	d, _, err := iodesign.Read(bytes.NewReader(in.sessionText))
	if err != nil {
		return err
	}
	l, err := core.NewLegalizer(d, serverEngineConfig())
	if err != nil {
		return err
	}
	if _, err := l.LegalizeBestEffort(ctx); err != nil {
		return err
	}
	ses, err := core.NewSession(l)
	if err != nil {
		return err
	}
	var dirty, retries float64
	var overhead []float64
	for k, payload := range eco.payloads {
		unit := fmt.Sprintf("replay/eco/%d", k)
		var (
			ds  []core.Delta
			rep *core.DeltaReport
			sum uint64
		)
		tr.do("service.DecodeDeltaBatch", unit, -1, func() { ds, err = service.DecodeDeltaBatch(payload, service.Limits{}) })
		if err != nil {
			return err
		}
		tr.do("core.Session.ApplyDelta", unit, -1, func() { rep, err = ses.ApplyDelta(ctx, ds) })
		if err != nil {
			return fmt.Errorf("frame %d: %w", k, err)
		}
		tr.do("design.PlacementChecksum", unit, -1, func() { sum = d.PlacementChecksum() })
		if got := fmt.Sprintf("%016x", sum); got != eco.sums[k] {
			out.failures = append(out.failures, fmt.Sprintf("replayed frame %d gives placement %s, the server sent %s", k, got, eco.sums[k]))
			break
		}
		dirty += float64(rep.DirtyCells)
		retries += float64(rep.Retries)
	}
	n := float64(max(len(eco.payloads), 1))
	decode := tr.selfSeconds("service.DecodeDeltaBatch")
	apply := tr.selfSeconds("core.Session.ApplyDelta")
	checksum := tr.selfSeconds("design.PlacementChecksum")
	for k := range apply {
		if k < len(decode) && k < len(checksum) && k < len(eco.rtt) {
			overhead = append(overhead, eco.rtt[k]-1000*(decode[k]+apply[k]+checksum[k]))
		}
	}
	v["session.apply_p50_ms"] = 1000 * percentile(apply, 50)
	v["session.apply_p99_ms"] = 1000 * percentile(apply, 99)
	v["session.dirty_cells_per_batch"] = dirty / n
	v["session.retries_per_batch"] = retries / n
	v["session.rollbacks"] = float64(eco.rollbacks)
	v["design.checksum_ms"] = 1000 * percentile(checksum, 50)
	v["service.eco_overhead_p50_ms"] = percentile(overhead, 50)
	v["service.submit_p50_ms"] = percentile(jobs.submit, 50)
	v["service.non2xx"] = float64(jobs.non2xx)
	v["jobq.wait_p50_ms"] = percentile(jobs.wait, 50)
	v["jobq.wait_p90_ms"] = percentile(jobs.wait, 90)
	v["jobq.run_p50_ms"] = percentile(jobs.running, 50)
	v["jobq.rejected"] = float64(jobs.rejected)

	var tracedRTT, plainRTT []float64
	for k, rtt := range eco.rtt {
		if eco.traced[k] {
			tracedRTT = append(tracedRTT, rtt)
		} else {
			plainRTT = append(plainRTT, rtt)
		}
	}
	v["trace.overhead_pct"] = (median(tracedRTT)/median(plainRTT) - 1) * 100

	// Job designs: the submit handler's decode, the runner's engine
	// calls and the report encoding, twice per design.
	var eng engineTotals
	var textMB float64
	for j, job := range in.jobs {
		textMB += float64(len(job.text)) / (1 << 20)
		for r := 0; r < 2; r++ {
			unit := fmt.Sprintf("replay/job/%d.%d", j, r)
			var (
				jd  *design.Design
				jl  *core.Legalizer
				rep *core.Report
				sum uint64
			)
			tr.do("service.DecodeSubmit", unit, -1, func() {
				_, err = service.DecodeSubmit(bytes.NewReader(job.body), serverEngineConfig(), service.Limits{})
			})
			if err != nil {
				return err
			}
			tr.do("iodesign.Read", unit, -1, func() { jd, _, err = iodesign.Read(bytes.NewReader(job.text)) })
			if err != nil {
				return err
			}
			cfg := serverEngineConfig()
			cfg.PhaseTiming = true
			tr.do("core.NewLegalizer", unit, -1, func() { jl, err = core.NewLegalizer(jd, cfg) })
			if err != nil {
				return err
			}
			t0 := time.Now()
			tr.do("core.LegalizeBestEffort", unit, -1, func() { rep, err = jl.LegalizeBestEffort(ctx) })
			legalizeS := time.Since(t0).Seconds()
			if err != nil {
				return err
			}
			eng.add(jl, legalizeS, 1)
			tr.do("job.PlacementChecksum", unit, -1, func() { sum = jd.PlacementChecksum() })
			tr.do("service.EncodeReport", unit, -1, func() { service.EncodeReport(rep, sum) })
			if got := fmt.Sprintf("%016x", sum); got != job.checksum {
				out.failures = append(out.failures, fmt.Sprintf("replayed job design %d gives placement %s, want %s", j, got, job.checksum))
			}
		}
	}
	perJob := func(name string) float64 {
		total := 0.0
		for _, s := range tr.selfSeconds(name) {
			total += s
		}
		return total / float64(eng.units)
	}
	v["iodesign.parse_s"] = perJob("iodesign.Read")
	v["iodesign.input_mb"] = textMB / float64(len(in.jobs))
	v["segment.grid_build_s"] = perJob("core.NewLegalizer")
	out.check(eng.values(v), "core phase busy time exceeds the planners' busy budget")
	zero(v, "iodesign.write_s", "verify.check_s", "netlist.hpwl_s")
	return nil
}
