package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"sublinear"
	"sublinear/internal/baseline"
	"sublinear/internal/rng"
	"sublinear/internal/simsvc"
)

// simdJobs drives an in-process simsvc service with a journal, served by
// its HTTP handler on loopback, from two closed-loop clients — one
// goroutine and one connection each:
//
//   - the interactive tenant submits one job with POST /v1/jobs and waits
//     on that job's SSE stream before the next;
//   - the fleet tenant submits batches of 32 with POST /v1/shards and
//     waits on each job's stream in turn.
//
// Jobs are 3-round Table I baselines (kutten or amp at n=256). About a
// quarter of each client's submissions resubmit a spec the same client
// already saw finish, so they take the cache-hit path.
//
// Every set-up opens the service on a copy of one journal that holds
// journalJobs finished jobs, so simsvc.Open replays them.
type simdJobs struct {
	seed    uint64
	journal []byte // the prepared journal; built for seed on first stage
	dir     string
	svc     *simsvc.Service
	srv     *http.Server
	serve   chan error
	base    string
	opens   []float64 // simsvc.Open until the listener is up, s

	untraced simdPass
	traced   simdPass
}

const (
	simdN           = 256
	interactiveJobs = 24 // per repetition
	fleetBatches    = 3  // per repetition
	fleetBatchSize  = 32
	// resubmitProb is the chance a job after the first group resubmits
	// an earlier spec; at 1/3 about a quarter of all jobs are
	// resubmissions.
	resubmitProb = 1.0 / 3
	// directSamples is how many fresh specs the traced pass also runs
	// directly through the baseline package.
	directSamples = 64
	// journalJobs is how many finished jobs each set-up's journal
	// holds; simsvc's default cache keeps up to 4096.
	journalJobs = 2048
	// journalStream is the rng stream of the journal's specs; plan uses
	// streams below it.
	journalStream = 1 << 40
)

// simdPass collects one pass's client-side timings, in milliseconds.
type simdPass struct {
	mu              sync.Mutex
	jobMS           []float64 // interactive: submit until done is seen
	submitMiss      []float64 // interactive POST round trip, fresh job
	submitHit       []float64 // interactive POST round trip, cache hit
	batchMS         []float64 // fleet POST /v1/shards round trip
	waitInteractive []float64 // 202 response until done is seen
	waitFleet       []float64
	overlap         []float64 // per repetition: first client's finish ÷ last's
	jobs            int64     // jobs that reached done, both tenants
	wall            time.Duration
	fresh           []simsvc.JobSpec // fresh specs, for the direct runs
	msgsBySeed      map[uint64]int64 // messages each fresh job reported
}

func (p *simdPass) add(dst *[]float64, d time.Duration) {
	p.mu.Lock()
	*dst = append(*dst, float64(d.Nanoseconds())/1e6)
	p.mu.Unlock()
}

// stage copies the seed's journal into a fresh directory under
// .bench_build in the working directory, for the next set-up to replay.
// The first call for a seed prepares the journal.
func (s *simdJobs) stage(seed uint64) error {
	tmp := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	if s.journal == nil || s.seed != seed {
		t0 := time.Now()
		data, err := prepareJournal(tmp, seed)
		if err != nil {
			return fmt.Errorf("prepare journal: %w", err)
		}
		fmt.Printf("# simd-jobs journal: %d finished jobs, %d bytes, prepared in %.2fs\n", journalJobs, len(data), time.Since(t0).Seconds())
		s.journal = data
	}
	s.seed = seed
	dir, err := os.MkdirTemp(tmp, "simd-")
	if err != nil {
		return err
	}
	s.dir = dir
	return os.WriteFile(filepath.Join(dir, "journal.jsonl"), s.journal, 0o644)
}

// prepareJournal runs journalJobs fresh jobs through a journaled service
// to completion and returns the journal it leaves. Their seeds have the
// top bit set and plan's never do, so no workload job hits a replayed
// result.
func prepareJournal(tmp string, seed uint64) ([]byte, error) {
	dir, err := os.MkdirTemp(tmp, "simd-prepare-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "journal.jsonl")
	svc, err := simsvc.Open(simsvc.Config{JournalPath: path, QueueSize: journalJobs})
	if err != nil {
		return nil, err
	}
	src := rng.New(seed).Split(journalStream)
	specs := make([]simsvc.JobSpec, journalJobs)
	for i := range specs {
		proto := "kutten"
		if src.Bool(0.5) {
			proto = "amp"
		}
		specs[i] = simsvc.JobSpec{Tenant: "fleet", Protocol: proto, N: simdN, Seed: src.Uint64() | 1<<63}
	}
	var bad error
	for i, sub := range svc.SubmitAll(specs) {
		if sub.Err != nil && bad == nil {
			bad = fmt.Errorf("spec %d: %w", i, sub.Err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := svc.Close(ctx); err != nil {
		return nil, err
	}
	if bad != nil {
		return nil, bad
	}
	return os.ReadFile(path)
}

// setup opens the service on the staged journal, which replays its
// finished jobs, and starts its HTTP listener.
func (s *simdJobs) setup(seed uint64) error {
	if s.dir == "" || s.seed != seed {
		return errors.New("simd-jobs: setup without a staged journal")
	}
	t0 := time.Now()
	svc, err := simsvc.Open(simsvc.Config{JournalPath: filepath.Join(s.dir, "journal.jsonl")})
	if err != nil {
		return fmt.Errorf("simsvc.Open: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = svc.Close(context.Background()) // idle: nothing was submitted
		return err
	}
	s.svc = svc
	s.srv = &http.Server{Handler: svc.Handler()}
	s.serve = make(chan error, 1)
	go func() { s.serve <- s.srv.Serve(ln) }()
	s.opens = append(s.opens, time.Since(t0).Seconds())
	s.base = "http://" + ln.Addr().String()
	return nil
}

func (s *simdJobs) close() {
	if s.srv != nil {
		_ = s.srv.Close() // the clients are idle; nothing to drain
		<-s.serve
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.svc.Close(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "simsvc close:", err)
		}
		s.srv, s.svc = nil, nil
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
		s.dir = ""
	}
}

// client is one closed-loop tenant client: one goroutine, one
// connection.
type client struct {
	tenant string
	http   *http.Client
	base   string
	pass   *simdPass
	spans  *spanLog
	parent int
	trace  string

	res   repResult
	msgs  int64             // messages the client's fresh jobs simulated
	seen  map[uint64][]byte // fresh spec seed -> compacted result JSON
	fresh []simsvc.JobSpec  // fresh specs in submission order
}

func newClient(tenant, base string, pass *simdPass, spans *spanLog, parent int, trace string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	// A job takes milliseconds; the timeout turns a stream that never
	// reaches done into a failed check instead of a hung run.
	hc := &http.Client{Transport: tr, Timeout: 30 * time.Second}
	return &client{tenant: tenant, base: base, http: hc, pass: pass,
		spans: spans, parent: parent, trace: trace, seen: map[uint64][]byte{}}
}

// digest hashes the client's fresh results in submission order; results
// are a pure function of the specs.
func (c *client) digest() uint64 {
	h := fnv.New64a()
	for _, spec := range c.fresh {
		h.Write(c.seen[spec.Seed])
	}
	return h.Sum64()
}

// plan is one repetition's job list for one tenant, submitted in groups
// of group specs: fresh specs, and with probability resubmitProb a
// resubmission of a spec from an earlier group, which the client has
// seen finish by then. resub marks the resubmissions.
func plan(seed uint64, r int, tenant string, stream uint64, count, group int) (specs []simsvc.JobSpec, resub []bool) {
	src := rng.New(seed).Split(uint64(r)*2 + stream)
	specs = make([]simsvc.JobSpec, count)
	resub = make([]bool, count)
	for i := range specs {
		if done := i - i%group; done > 0 && src.Bool(resubmitProb) {
			specs[i] = specs[src.Intn(done)]
			resub[i] = true
			continue
		}
		proto := "kutten"
		if src.Bool(0.5) {
			proto = "amp"
		}
		specs[i] = simsvc.JobSpec{Tenant: tenant, Protocol: proto, N: simdN, Seed: src.Uint64() >> 1}
	}
	return specs, resub
}

func (s *simdJobs) rep(r int, spans *spanLog, parent int, trace string) repResult {
	pass := &s.untraced
	if spans != nil {
		pass = &s.traced
	}
	inter := newClient("interactive", s.base, pass, spans, parent, trace)
	fleet := newClient("fleet", s.base, pass, spans, parent, trace)
	ispecs, iresub := plan(s.seed, r, "interactive", 0, interactiveJobs, 1)
	fspecs, fresub := plan(s.seed, r, "fleet", 1, fleetBatches*fleetBatchSize, fleetBatchSize)

	t0 := time.Now()
	var iwall, fwall time.Duration
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i, spec := range ispecs {
			inter.single(spec, iresub[i])
		}
		iwall = time.Since(t0)
	}()
	go func() {
		defer wg.Done()
		for b := 0; b < fleetBatches; b++ {
			lo, hi := b*fleetBatchSize, (b+1)*fleetBatchSize
			fleet.batch(fspecs[lo:hi], fresub[lo:hi])
		}
		fwall = time.Since(t0)
	}()
	wg.Wait()
	wall := time.Since(t0)
	inter.http.CloseIdleConnections()
	fleet.http.CloseIdleConnections()

	res := repResult{wall: wall, msgs: inter.msgs + fleet.msgs, digests: []uint64{inter.digest(), fleet.digest()}}
	for _, c := range []*client{inter, fleet} {
		res.attempted += c.res.attempted
		res.failures = append(res.failures, c.res.failures...)
	}
	pass.mu.Lock()
	pass.wall += wall
	pass.overlap = append(pass.overlap, min(iwall, fwall).Seconds()/max(iwall, fwall).Seconds())
	pass.fresh = append(pass.fresh, inter.fresh...)
	pass.fresh = append(pass.fresh, fleet.fresh...)
	pass.mu.Unlock()
	return res
}

// jobStatus is the part of simsvc.JobStatus the clients read.
type jobStatus struct {
	ID       string          `json:"id"`
	State    string          `json:"state"`
	CacheHit bool            `json:"cacheHit"`
	Result   json.RawMessage `json:"result"`
}

// jobResult is the part of simsvc.JobResult the checks read.
type jobResult struct {
	Success  int `json:"success"`
	Reps     int `json:"reps"`
	Messages struct {
		Mean float64 `json:"mean"`
	} `json:"messages"`
}

// single submits one job and, unless it was a cache hit, waits for its
// done event and fetches its result. A resubmission must be a cache hit
// and a fresh spec must not.
func (c *client) single(spec simsvc.JobSpec, resub bool) {
	c.res.attempted++
	body, _ := json.Marshal(spec)
	t0 := time.Now()
	code, data, err := c.do(http.MethodPost, "/v1/jobs", body)
	posted := time.Now()
	if err != nil {
		c.res.fail("%s submit: %v", c.tenant, err)
		return
	}
	var st jobStatus
	if code == http.StatusAccepted || code == http.StatusOK {
		if err := json.Unmarshal(data, &st); err != nil {
			c.res.fail("%s submit: %v", c.tenant, err)
			return
		}
	}
	jobSpan := c.spans.add("job", c.parent, st.ID, t0, time.Time{})
	c.spans.add("simsvc.submit", jobSpan, st.ID, t0, posted)
	defer c.spans.end(jobSpan)
	switch code {
	case http.StatusOK:
		c.pass.add(&c.pass.submitHit, posted.Sub(t0))
		c.pass.add(&c.pass.jobMS, posted.Sub(t0))
		c.checkHit(spec, st, resub)
	case http.StatusAccepted:
		c.pass.add(&c.pass.submitMiss, posted.Sub(t0))
		done, ok := c.wait(st.ID, jobSpan)
		if !ok {
			return
		}
		if resub {
			c.res.fail("%s job %s: resubmission queued as a new job, not served from the cache", c.tenant, st.ID)
			return
		}
		c.pass.add(&c.pass.waitInteractive, done.Sub(posted))
		c.pass.add(&c.pass.jobMS, done.Sub(t0))
		c.fetch(spec, st.ID, jobSpan)
	default:
		c.res.fail("%s submit: HTTP %d: %s", c.tenant, code, strings.TrimSpace(string(data)))
	}
}

// batch submits one shard batch, then waits on each queued job's stream
// in turn. resub marks the specs that must be cache hits.
func (c *client) batch(specs []simsvc.JobSpec, resub []bool) {
	c.res.attempted += int64(len(specs))
	body, _ := json.Marshal(simsvc.ShardBatch{Specs: specs})
	t0 := time.Now()
	code, data, err := c.do(http.MethodPost, "/v1/shards", body)
	posted := time.Now()
	if err != nil || code != http.StatusOK {
		c.res.fail("%s batch: HTTP %d: %v %s", c.tenant, code, err, strings.TrimSpace(string(data)))
		return
	}
	c.pass.add(&c.pass.batchMS, posted.Sub(t0))
	var out struct {
		Shards []struct {
			Status *jobStatus `json:"status"`
			Error  string     `json:"error"`
		} `json:"shards"`
	}
	if err := json.Unmarshal(data, &out); err != nil || len(out.Shards) != len(specs) {
		c.res.fail("%s batch: bad response (%v)", c.tenant, err)
		return
	}
	c.spans.add("simsvc.batch_submit", c.parent, c.trace, t0, posted)
	for i, sh := range out.Shards {
		if sh.Status == nil {
			c.res.fail("%s batch: shard %d: %s", c.tenant, i, sh.Error)
			continue
		}
		if sh.Status.State == simsvc.StateDone {
			c.checkHit(specs[i], *sh.Status, resub[i])
			continue
		}
		jobSpan := c.spans.add("job", c.parent, sh.Status.ID, t0, time.Time{})
		done, ok := c.wait(sh.Status.ID, jobSpan)
		if ok && resub[i] {
			c.res.fail("%s job %s: resubmission queued as a new job (state %s), not served from the cache", c.tenant, sh.Status.ID, sh.Status.State)
		} else if ok {
			c.pass.add(&c.pass.waitFleet, done.Sub(posted))
			c.fetch(specs[i], sh.Status.ID, jobSpan)
		}
		c.spans.end(jobSpan)
	}
}

// checkHit checks a cache hit: a resubmission, done, and byte-identical
// to the result the client fetched for the original submission.
func (c *client) checkHit(spec simsvc.JobSpec, st jobStatus, resub bool) {
	c.jobDone()
	if !resub {
		c.res.fail("%s job %s: fresh spec served as done (cache hit %v)", c.tenant, st.ID, st.CacheHit)
		return
	}
	orig, ok := c.seen[spec.Seed]
	if !ok {
		c.res.fail("%s job %s: cache hit for a spec this client never saw finish", c.tenant, st.ID)
		return
	}
	if !st.CacheHit || st.State != simsvc.StateDone {
		c.res.fail("%s job %s: resubmission not served from the cache (state %s)", c.tenant, st.ID, st.State)
		return
	}
	if got := compact(st.Result); !bytes.Equal(got, orig) {
		c.res.fail("%s job %s: cache-hit result %s differs from the original %s", c.tenant, st.ID, got, orig)
	}
}

// wait reads the job's SSE stream until its done event and returns when
// the client saw it.
func (c *client) wait(id string, parent int) (time.Time, bool) {
	t0 := time.Now()
	resp, err := c.http.Get(c.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		c.res.fail("%s job %s events: %v", c.tenant, id, err)
		return time.Time{}, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		c.res.fail("%s job %s events: HTTP %d", c.tenant, id, resp.StatusCode)
		return time.Time{}, false
	}
	br := bufio.NewReader(resp.Body)
	var event string
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			c.res.fail("%s job %s events: stream ended before done: %v", c.tenant, id, err)
			return time.Time{}, false
		}
		line = strings.TrimRight(line, "\n")
		if v, ok := strings.CutPrefix(line, "event: "); ok {
			event = v
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok || event != "done" {
			continue
		}
		done := time.Now()
		c.spans.add("simsvc.wait", parent, id, t0, done)
		var ev simsvc.JobEvent
		if err := json.Unmarshal([]byte(data), &ev); err != nil || ev.State != simsvc.StateDone {
			c.res.fail("%s job %s: done event %s", c.tenant, id, data)
			return time.Time{}, false
		}
		io.Copy(io.Discard, br) // the server ends the stream after done
		return done, true
	}
}

// fetch reads a finished job's result, checks it, and keeps it for the
// cache-hit comparison.
func (c *client) fetch(spec simsvc.JobSpec, id string, parent int) {
	t0 := time.Now()
	code, data, err := c.do(http.MethodGet, "/v1/jobs/"+id, nil)
	c.spans.add("simsvc.result", parent, id, t0, time.Now())
	if err != nil || code != http.StatusOK {
		c.res.fail("%s job %s result: HTTP %d %v", c.tenant, id, code, err)
		return
	}
	var st jobStatus
	var jr jobResult
	if err := json.Unmarshal(data, &st); err != nil {
		c.res.fail("%s job %s result: %v", c.tenant, id, err)
		return
	}
	if err := json.Unmarshal(st.Result, &jr); err != nil || st.State != simsvc.StateDone || jr.Reps != 1 || jr.Success != jr.Reps {
		c.res.fail("%s job %s: state %s result %s", c.tenant, id, st.State, compact(st.Result))
		return
	}
	c.jobDone()
	c.msgs += int64(jr.Messages.Mean)
	c.pass.mu.Lock()
	if c.pass.msgsBySeed == nil {
		c.pass.msgsBySeed = map[uint64]int64{}
	}
	c.pass.msgsBySeed[spec.Seed] = int64(jr.Messages.Mean)
	c.pass.mu.Unlock()
	c.seen[spec.Seed] = compact(st.Result)
	c.fresh = append(c.fresh, spec)
}

func (c *client) jobDone() {
	c.pass.mu.Lock()
	c.pass.jobs++
	c.pass.mu.Unlock()
}

// do runs one request on the client's connection and reads the whole
// response.
func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func compact(raw []byte) []byte {
	var b bytes.Buffer
	if err := json.Compact(&b, raw); err != nil {
		return raw
	}
	return b.Bytes()
}

func (s *simdJobs) perLayer(untraced, traced []repResult) (map[string]float64, []string) {
	m := map[string]float64{}
	failures := s.direct(m)
	if err := s.scrape(m); err != nil {
		failures = append(failures, err.Error())
	}
	t := &s.traced
	m["simsvc.open_s"] = median(s.opens)
	m["simsvc.submit_ms_p50.miss"] = median(t.submitMiss)
	tail(m, "simsvc.submit_ms_p99.miss", t.submitMiss, 99)
	m["simsvc.submit_ms_p50.hit"] = median(t.submitHit)
	m["simsvc.batch_submit_ms_p50"] = median(t.batchMS)
	tail(m, "simsvc.wait_ms_p99.interactive", t.waitInteractive, 99)
	tail(m, "simsvc.wait_ms_p99.fleet", t.waitFleet, 99)
	u := &s.untraced
	m["simsvc.job_ms_p50"] = median(u.jobMS)
	tail(m, "simsvc.job_ms_p99", u.jobMS, 99)
	m["simsvc.jobs_per_s"] = float64(u.jobs) / u.wall.Seconds()
	m["simsvc.overlap_frac"] = median(u.overlap)
	return m, failures
}

// direct runs the first directSamples fresh specs of the traced pass
// straight through the baseline package, as simsvc's runner does, to
// give the engine's share of a job (baseline.job_ms), and checks each
// against the service's result.
func (s *simdJobs) direct(m map[string]float64) []string {
	var failures []string
	var times []float64
	specs := s.traced.fresh
	if len(specs) > directSamples {
		specs = specs[:directSamples]
	}
	for _, spec := range specs {
		var res *baseline.Result
		var err error
		t0 := time.Now()
		if spec.Protocol == "amp" {
			res, err = baseline.RunAMP(baseline.AMPConfig{N: spec.N, Seed: spec.Seed}, sublinear.RandomInputs(spec.N, 0.5, spec.Seed^0xbeef))
		} else {
			res, err = baseline.RunKutten(baseline.KuttenConfig{N: spec.N, Seed: spec.Seed})
		}
		times = append(times, float64(time.Since(t0).Nanoseconds())/1e6)
		if err != nil || !res.Success {
			failures = append(failures, fmt.Sprintf("direct %s seed %d: %v", spec.Protocol, spec.Seed, err))
			continue
		}
		if got, want := res.Counters.Messages(), s.traced.msgsBySeed[spec.Seed]; got != want {
			failures = append(failures, fmt.Sprintf("direct %s seed %d: %d messages, the service reported %d", spec.Protocol, spec.Seed, got, want))
		}
	}
	m["baseline.job_ms"] = median(times)
	return failures
}

// scrape reads the traced pass's service counters from GET /metrics,
// and checks that its set-up replayed every journaled job.
func (s *simdJobs) scrape(m map[string]float64) error {
	resp, err := http.Get(s.base + "/metrics")
	if err != nil {
		return fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	counters := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			counters[name] = v
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("scrape /metrics: %w", err)
	}
	submitted, ok := counters["simd_jobs_submitted_total"]
	if !ok || submitted == 0 {
		return errors.New("scrape /metrics: no simd_jobs_submitted_total")
	}
	m["simsvc.cache_hit_frac"] = counters["simd_cache_hits_total"] / submitted
	m["simsvc.rejected"] = counters["simd_jobs_rejected_total"]
	if got := counters["simd_journal_replayed_done_total"]; got != journalJobs {
		return fmt.Errorf("simsvc.Open replayed %v finished jobs, the journal holds %d", got, journalJobs)
	}
	return nil
}
