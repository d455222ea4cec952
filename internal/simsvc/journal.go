package simsvc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// jobJournal is the daemon's fsync'd append-only durability log, the
// server-side sibling of the coordinator journal in
// internal/fleet/journal.go and built on the same JSONL discipline:
// a header line, one record per state change, torn-tail repair by
// truncation, and idempotent last-wins replay. Two record kinds exist —
// "submit" (a job was admitted: ID, tenant, normalized spec) and "done"
// (a job finished: terminal state, cache key, result). A killed daemon
// restarts by replaying the log: jobs with a submit but no done record
// re-enter the queue under their original IDs (in-flight work is
// indistinguishable from queued work after a crash, and deterministic
// engines make the re-run an exact replay), and successful done records
// re-warm the result cache. The file is compacted on every open down to
// the records that still matter.
//
// Write paths have different durability needs and pay accordingly:
// submit records are fsync'd before the submission is acknowledged
// (one fsync per HTTP request — batched for /v1/shards, so a 256-spec
// batch costs one sync), while done records are group-committed by a
// background flusher that coalesces bursts into one write+sync. A crash
// in the flusher window loses only done records, which replay as
// pending and re-run to the same bytes.
type jobJournal struct {
	path string

	mu sync.Mutex
	f  *os.File

	// Group commit: finished-job records accumulate in buf until the
	// flusher drains them in one write+sync.
	buf     []byte
	flushCh chan struct{}
	stopCh  chan struct{}
	doneCh  chan struct{}
	err     error // first write/sync error; the journal is dead after it
}

const jobJournalFormat = "simd-journal-v1"

type jobJournalHeader struct {
	Format string `json:"format"`
}

// jobRecord is one journal line after the header.
type jobRecord struct {
	// Op is "submit" or "done".
	Op     string   `json:"op"`
	ID     string   `json:"id"`
	Tenant string   `json:"tenant,omitempty"`
	Spec   *JobSpec `json:"spec,omitempty"` // submit and done records
	// Done records: the terminal state, the cache key, and (on success)
	// the result, so replay re-warms the cache without re-running — and
	// the spec rides along so the finished job itself is resurrected
	// under its original ID for clients still polling it.
	Key    string     `json:"key,omitempty"`
	State  string     `json:"state,omitempty"`
	Error  string     `json:"error,omitempty"`
	Result *JobResult `json:"result,omitempty"`
}

// journalReplay is what openJobJournal recovered from the log.
type journalReplay struct {
	// Pending are admitted jobs with no terminal record, in submission
	// order — the restart queue.
	Pending []jobRecord
	// Done are successful terminal records in log order (last-wins per
	// key when the cache replays them).
	Done []jobRecord
	// MaxSeq is the highest numeric job ID seen, so the restarted
	// daemon's ID sequence cannot collide with journaled IDs.
	MaxSeq int64
}

// openJobJournal opens (or creates) the journal at path, replays it,
// compacts it, and leaves it open for appending. keepDone bounds the
// successful records retained by compaction (the cache-warm set);
// failed jobs are dropped at compaction — their submissions were
// acknowledged and answered, and nothing would replay them.
func openJobJournal(path string, keepDone int) (*jobJournal, *journalReplay, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, nil, err
	}
	replay := &journalReplay{}
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, err
	}
	if err == nil {
		if replay, err = replayJobJournal(path, data); err != nil {
			return nil, nil, err
		}
	}
	if len(replay.Done) > keepDone {
		replay.Done = replay.Done[len(replay.Done)-keepDone:]
	}

	// Compact: rewrite the surviving state to a fresh file and swap it
	// in atomically, so the log's size is bounded by the live set plus
	// the cache-warm window, not by daemon lifetime.
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, nil, err
	}
	var out bytes.Buffer
	writeLine := func(v any) {
		b, _ := json.Marshal(v)
		out.Write(b)
		out.WriteByte('\n')
	}
	writeLine(jobJournalHeader{Format: jobJournalFormat})
	for i := range replay.Done {
		writeLine(&replay.Done[i])
	}
	for i := range replay.Pending {
		writeLine(&replay.Pending[i])
	}
	if _, err := f.Write(out.Bytes()); err != nil {
		f.Close()
		return nil, nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, nil, err
	}
	if err := f.Close(); err != nil {
		return nil, nil, err
	}
	if err := os.Rename(tmp, path); err != nil {
		return nil, nil, err
	}
	if err := SyncDir(filepath.Dir(path)); err != nil {
		return nil, nil, err
	}
	af, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	j := &jobJournal{
		path:    path,
		f:       af,
		flushCh: make(chan struct{}, 1),
		stopCh:  make(chan struct{}),
		doneCh:  make(chan struct{}),
	}
	go j.flusher()
	return j, replay, nil
}

// SyncDir fsyncs the directory dir. A file's own Sync does not persist
// its directory entry, so a file just created in dir, or renamed into
// it, survives a crash only once dir is synced too.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return fmt.Errorf("sync directory %s: %w", dir, err)
	}
	return d.Close()
}

// replayJobJournal decodes the log, stopping at the first torn or
// undecodable line (the tail a kill mid-append leaves behind; the
// compaction rewrite discards it).
func replayJobJournal(path string, data []byte) (*journalReplay, error) {
	replay := &journalReplay{}
	submits := map[string]jobRecord{}
	var order []string
	terminal := map[string]bool{}
	first := true
	for rest := data; len(rest) > 0; {
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			break // torn tail
		}
		line := rest[:nl]
		rest = rest[nl+1:]
		if first {
			var h jobJournalHeader
			if err := json.Unmarshal(line, &h); err != nil || h.Format != jobJournalFormat {
				return nil, fmt.Errorf("simsvc: %s is not a simd job journal", path)
			}
			first = false
			continue
		}
		var rec jobRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			break // torn tail mid-file after a partial flush
		}
		switch rec.Op {
		case "submit":
			if rec.Spec == nil || rec.ID == "" {
				continue
			}
			if _, seen := submits[rec.ID]; !seen {
				order = append(order, rec.ID)
			}
			submits[rec.ID] = rec // last wins
			var seq int64
			if _, err := fmt.Sscanf(rec.ID, "j%d", &seq); err == nil && seq > replay.MaxSeq {
				replay.MaxSeq = seq
			}
		case "done":
			terminal[rec.ID] = true
			if rec.State == StateDone && rec.Result != nil && rec.Key != "" {
				replay.Done = append(replay.Done, rec)
			}
		}
	}
	if first && len(data) > 0 {
		return nil, fmt.Errorf("simsvc: %s is truncated before its header", path)
	}
	for _, id := range order {
		if !terminal[id] {
			replay.Pending = append(replay.Pending, submits[id])
		}
	}
	return replay, nil
}

// appendSubmits durably records a batch of admissions: one write, one
// fsync, however many records — the /v1/shards batch pays for a single
// sync. It must return before the submissions are acknowledged.
func (j *jobJournal) appendSubmits(recs []jobRecord) error {
	var out bytes.Buffer
	for i := range recs {
		b, err := json.Marshal(&recs[i])
		if err != nil {
			return err
		}
		out.Write(b)
		out.WriteByte('\n')
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	if _, err := j.f.Write(out.Bytes()); err != nil {
		j.err = err
		return err
	}
	if err := j.f.Sync(); err != nil {
		j.err = err
		return err
	}
	return nil
}

// recordDone enqueues a terminal record for the group-commit flusher.
// Loss window: a crash before the flush replays the job as pending and
// re-runs it deterministically — durability is traded for one coalesced
// fsync per burst instead of one per completion.
func (j *jobJournal) recordDone(rec jobRecord) {
	b, err := json.Marshal(&rec)
	if err != nil {
		return
	}
	j.mu.Lock()
	j.buf = append(j.buf, b...)
	j.buf = append(j.buf, '\n')
	j.mu.Unlock()
	select {
	case j.flushCh <- struct{}{}:
	default: // a flush is already scheduled; it will pick this record up
	}
}

// flusher drains buffered done records: every wakeup swaps the buffer
// out under the lock and commits it with a single write+sync, so N
// completions racing in cost one sync, not N.
func (j *jobJournal) flusher() {
	defer close(j.doneCh)
	for {
		select {
		case <-j.flushCh:
			j.flush()
		case <-j.stopCh:
			j.flush()
			return
		}
	}
}

func (j *jobJournal) flush() {
	j.mu.Lock()
	buf := j.buf
	j.buf = nil
	if len(buf) == 0 || j.err != nil {
		j.mu.Unlock()
		return
	}
	if _, err := j.f.Write(buf); err != nil {
		j.err = err
		j.mu.Unlock()
		return
	}
	if err := j.f.Sync(); err != nil {
		j.err = err
	}
	j.mu.Unlock()
}

// close flushes outstanding done records and closes the file.
func (j *jobJournal) close() error {
	close(j.stopCh)
	<-j.doneCh
	j.mu.Lock()
	defer j.mu.Unlock()
	err := j.f.Close()
	if j.err != nil {
		return j.err
	}
	return err
}
