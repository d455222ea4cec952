package simsvc

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sublinear/internal/quota"
)

// TestJournalReplayResumesQueue abandons a journaled service with a
// backlog it never got to run — the unit-level stand-in for kill -9 —
// and verifies a successor on the same journal resumes the queue under
// the original job IDs and produces the same results an uninterrupted
// service would.
func TestJournalReplayResumesQueue(t *testing.T) {
	path := filepath.Join(t.TempDir(), "simd.jsonl")
	park := make(chan struct{}) // never closed: svc1 completes nothing
	svc1, err := Open(Config{Workers: 1, QueueSize: 16, JournalPath: path, exec: blockingExec(park)})
	if err != nil {
		t.Fatal(err)
	}
	specs := []JobSpec{
		{Protocol: "election", N: 32, Alpha: 0.8, Seed: 1, Reps: 2, Raw: true},
		{Protocol: "election", N: 32, Alpha: 0.8, Seed: 2, Reps: 2, Raw: true},
		{Protocol: "agreement", N: 32, Alpha: 0.8, Seed: 3, Reps: 2, Raw: true},
	}
	var ids []string
	for _, out := range svc1.SubmitAll(specs) {
		if out.Err != nil {
			t.Fatal(out.Err)
		}
		ids = append(ids, out.Status.ID)
	}
	// svc1 is now abandoned mid-backlog: no Close, no drain, exactly
	// what SIGKILL leaves behind (the submit records are already
	// fsync'd — that is the acknowledgement contract).

	svc2, err := Open(Config{Workers: 2, QueueSize: 16, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer closeService(t, svc2)
	for _, id := range ids {
		id := id
		waitFor(t, func() bool {
			st, ok := svc2.Job(id)
			return ok && st.State == StateDone
		})
	}
	// The replayed results must be bit-identical to direct runs.
	for i, id := range ids {
		st, _ := svc2.Job(id)
		want := runSync(t, specs[i])
		got, _ := json.Marshal(st.Result)
		ref, _ := json.Marshal(want)
		if !bytes.Equal(got, ref) {
			t.Fatalf("job %s result diverged from direct run:\n%s\nvs\n%s", id, got, ref)
		}
	}
	// The ID sequence continues past the replayed jobs: no collisions.
	st, err := svc2.Submit(JobSpec{Protocol: "election", N: 16, Alpha: 0.8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if st.ID == id {
			t.Fatalf("fresh submission reused replayed ID %s", id)
		}
	}
}

// TestJournalWarmsCacheAcrossRestart proves completed work survives: a
// cleanly closed daemon's successor answers an identical submission
// from the journal-warmed cache without re-running it.
func TestJournalWarmsCacheAcrossRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "simd.jsonl")
	spec := JobSpec{Protocol: "election", N: 32, Alpha: 0.8, Seed: 7, Reps: 2}

	svc1, err := Open(Config{Workers: 1, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	st1, err := svc1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		st, ok := svc1.Job(st1.ID)
		return ok && st.State == StateDone
	})
	closeService(t, svc1) // flushes the done record

	ran := 0
	svc2, err := Open(Config{Workers: 1, JournalPath: path,
		exec: func(ctx context.Context, s JobSpec) (*JobResult, error) {
			ran++
			return runSpec(ctx, s)
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer closeService(t, svc2)
	st2, err := svc2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.CacheHit || st2.State != StateDone {
		t.Fatalf("restarted daemon missed the journal-warmed cache: %+v", st2)
	}
	if ran != 0 {
		t.Fatalf("executor ran %d times; the cache should have answered", ran)
	}
	res1, _ := svc1.Job(st1.ID)
	a, _ := json.Marshal(res1.Result)
	b, _ := json.Marshal(st2.Result)
	if !bytes.Equal(a, b) {
		t.Fatalf("cached result changed across restart:\n%s\nvs\n%s", a, b)
	}
}

// TestJournalTornTailRepair appends a torn half-record — the signature
// of a kill mid-append — and verifies the log still opens, replays the
// good prefix, and compacts the damage away.
// TestSyncDir checks that the directory sync the journals rely on
// succeeds on a real directory and reports a missing one.
func TestSyncDir(t *testing.T) {
	dir := t.TempDir()
	if err := SyncDir(dir); err != nil {
		t.Fatalf("SyncDir(%s): %v", dir, err)
	}
	if err := SyncDir(filepath.Join(dir, "missing")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("SyncDir on a missing directory: %v, want ErrNotExist", err)
	}
}

func TestJournalTornTailRepair(t *testing.T) {
	path := filepath.Join(t.TempDir(), "simd.jsonl")
	spec := JobSpec{Protocol: "election", N: 16, Alpha: 0.8, Seed: 1}
	norm, err := spec.Normalize(DefaultLimits)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	_ = enc.Encode(jobJournalHeader{Format: jobJournalFormat})
	_ = enc.Encode(jobRecord{Op: "submit", ID: "j00000004", Tenant: "default", Spec: &norm})
	buf.WriteString(`{"op":"submit","id":"j0000`) // torn: no newline, half a record
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	j, replay, err := openJobJournal(path, 16)
	if err != nil {
		t.Fatalf("torn journal did not open: %v", err)
	}
	defer j.close()
	if len(replay.Pending) != 1 || replay.Pending[0].ID != "j00000004" {
		t.Fatalf("replay = %+v, want the one good submit", replay.Pending)
	}
	if replay.MaxSeq != 4 {
		t.Fatalf("MaxSeq = %d, want 4", replay.MaxSeq)
	}
	// Compaction must have rewritten the file without the torn tail.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte(`"j0000`+"\n")) || !bytes.HasSuffix(data, []byte("\n")) {
		t.Fatalf("compacted journal still torn:\n%s", data)
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	lines := 0
	for sc.Scan() {
		lines++
	}
	if lines != 2 { // header + one submit
		t.Fatalf("compacted journal has %d lines, want 2:\n%s", lines, data)
	}
}

// TestTenantAdmissionOverHTTP exercises the per-tenant budget: one
// tenant's exhausted queue budget 429s with Retry-After while another
// tenant's submissions are still admitted, and /metrics attributes the
// outcomes per tenant.
func TestTenantAdmissionOverHTTP(t *testing.T) {
	park := make(chan struct{})
	svc := New(Config{
		Workers: 1, QueueSize: 64,
		Quota: quota.Config{
			TotalQueued: 64,
			Tenants:     map[string]quota.Limits{"small": {MaxQueued: 1}},
		},
		exec: blockingExec(park),
	})
	defer closeService(t, svc) // after the release below (LIFO): drain needs jobs to finish
	defer close(park)
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	submit := func(tenant string, seed uint64) *http.Response {
		body, _ := json.Marshal(JobSpec{Tenant: tenant, Protocol: "election", N: 16, Alpha: 0.8, Seed: seed})
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	// Occupy the single worker so queue depths are deterministic.
	if resp := submit("small", 1); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	waitFor(t, func() bool { return svc.metrics.running.Load() == 1 })
	// small's queue budget is 1: one queued job fits, the next is cut.
	if resp := submit("small", 2); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: %d", resp.StatusCode)
	}
	resp := submit("small", 3)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget submit: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("tenant 429 without Retry-After")
	}
	// Another tenant is unaffected by small's exhaustion.
	if resp := submit("big", 4); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("other tenant rejected: %d", resp.StatusCode)
	}
	mtext := metricsText(t, srv.URL)
	for _, want := range []string{
		`simd_tenant_jobs_rejected_total{tenant="small"} 1`,
		`simd_tenant_jobs_submitted_total{tenant="big"} 1`,
		`simd_tenant_queued{tenant="small"} 1`,
	} {
		if !strings.Contains(mtext, want) {
			t.Errorf("metrics missing %q:\n%s", want, mtext)
		}
	}
	if err := quotaErrIs(svc, "small"); err != nil {
		t.Error(err)
	}
}

// quotaErrIs double-checks the Go-level error taxonomy: a tenant-budget
// rejection still satisfies errors.Is(err, ErrQueueFull) — the contract
// the fleet client's retry path keys on.
func quotaErrIs(svc *Service, tenant string) error {
	_, err := svc.Submit(JobSpec{Tenant: tenant, Protocol: "election", N: 16, Alpha: 0.8, Seed: 99})
	if !errors.Is(err, ErrQueueFull) {
		return errors.New("tenant rejection does not wrap ErrQueueFull: " + err.Error())
	}
	return nil
}

// TestSSEEventStream subscribes to a job's event stream and verifies
// the lifecycle arrives in order with per-repetition progress, and that
// a late subscriber to a finished job gets the replayed history.
func TestSSEEventStream(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer closeService(t, svc)
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	st, err := svc.Submit(JobSpec{Protocol: "election", N: 32, Alpha: 0.8, Seed: 5, Reps: 3})
	if err != nil {
		t.Fatal(err)
	}
	types := readSSE(t, srv.URL, st.ID)
	if types[len(types)-1] != "done" {
		t.Fatalf("stream did not end with done: %v", types)
	}
	idx := func(kind string) int {
		for i, tp := range types {
			if tp == kind {
				return i
			}
		}
		return -1
	}
	if !(idx("queued") >= 0 && idx("queued") < idx("running") && idx("running") < idx("done")) {
		t.Fatalf("lifecycle out of order: %v", types)
	}

	// Late subscriber: the job is finished; replay alone must tell the
	// whole story and the stream must close by itself.
	late := readSSE(t, srv.URL, st.ID)
	if late[len(late)-1] != "done" || idx("queued") < 0 {
		t.Fatalf("late replay incomplete: %v", late)
	}

	// Unknown job: 404, not an empty stream.
	resp, err := http.Get(srv.URL + "/v1/jobs/nosuch/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job events: %d, want 404", resp.StatusCode)
	}
}

// readSSE consumes a job's event stream until it closes and returns the
// event types in arrival order, verifying each data payload decodes.
func readSSE(t *testing.T, base, jobID string) []string {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + jobID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	var types []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if after, ok := strings.CutPrefix(line, "data: "); ok {
			var ev JobEvent
			if err := json.Unmarshal([]byte(after), &ev); err != nil {
				t.Fatalf("bad event payload %q: %v", after, err)
			}
			types = append(types, ev.Type)
		}
	}
	if len(types) == 0 {
		t.Fatal("no events received")
	}
	return types
}

// TestProgressEventsCoalesce asserts the replay history keeps a single
// progress entry no matter how many repetitions ran, so late
// subscribers are not flooded.
func TestProgressEventsCoalesce(t *testing.T) {
	hub := newEventHub()
	hub.publish(JobEvent{Type: "queued", Job: "j1"})
	hub.publish(JobEvent{Type: "running", Job: "j1"})
	for rep := 0; rep < 100; rep++ {
		hub.publish(JobEvent{Type: "progress", Job: "j1", Rep: rep, Reps: 100})
	}
	hub.publish(JobEvent{Type: "done", Job: "j1", State: StateDone})
	history, ch, _, ok := hub.subscribe("j1")
	if !ok || ch != nil {
		t.Fatalf("terminal stream should replay-only (ok=%v ch=%v)", ok, ch)
	}
	var types []string
	for _, ev := range history {
		types = append(types, ev.Type)
	}
	want := []string{"queued", "running", "progress", "done"}
	if !reflect.DeepEqual(types, want) {
		t.Fatalf("history %v, want %v", types, want)
	}
	if history[2].Rep != 99 {
		t.Fatalf("coalesced progress kept rep %d, want the latest (99)", history[2].Rep)
	}
}
