package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"sublinear/internal/simsvc"
)

// Journal is the coordinator's append-only completion log: one JSONL
// file per plan, named by the plan's content hash, holding a header
// line followed by one line per completed shard. A killed sweep
// resumes by replaying the journal and dispatching only the missing
// shards; because shard results are deterministic in the spec, replayed
// entries are exact, not approximations (the client-side complement of
// simd's server-side result cache). Replay is idempotent — duplicate
// records for a shard resolve last-wins, and a torn final line from a
// kill mid-append is repaired by truncation — so the journal tolerates
// the append anomalies a crash can leave behind.
type Journal struct {
	path string

	mu sync.Mutex
	f  *os.File
}

type journalHeader struct {
	Format string `json:"format"`
	Plan   string `json:"plan"`
	Kind   string `json:"kind"`
	Name   string `json:"name,omitempty"`
	Shards int    `json:"shards"`
}

type journalEntry struct {
	Shard  int               `json:"shard"`
	Result *simsvc.JobResult `json:"result"`
}

const journalFormat = "fleet-journal-v1"

// JournalPath returns the journal file a plan maps to under dir.
func JournalPath(dir string, p *Plan) string {
	return filepath.Join(dir, "fleet-"+p.Hash[:16]+".jsonl")
}

// OpenJournal opens (or creates) the journal of a plan under dir and
// returns it together with the completed shard results it already
// holds. A truncated final line — the signature of a coordinator killed
// mid-append — is discarded and the file is truncated back to the last
// complete record before appending resumes.
func OpenJournal(dir string, p *Plan) (*Journal, map[int]*simsvc.JobResult, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	path := JournalPath(dir, p)
	done := make(map[int]*simsvc.JobResult)

	data, err := os.ReadFile(path)
	switch {
	case os.IsNotExist(err):
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_EXCL, 0o644)
		if err != nil {
			return nil, nil, err
		}
		j := &Journal{path: path, f: f}
		if err := j.append(journalHeader{
			Format: journalFormat, Plan: p.Hash,
			Kind: p.Workload.Kind, Name: p.Workload.Sweep.Name,
			Shards: len(p.Shards),
		}); err != nil {
			f.Close()
			return nil, nil, err
		}
		// The header is synced; sync the new directory entry too.
		if err := simsvc.SyncDir(dir); err != nil {
			f.Close()
			return nil, nil, err
		}
		return j, done, nil
	case err != nil:
		return nil, nil, err
	}

	// Replay: header first, then entries. A line without a terminating
	// newline or that fails to decode is the partial tail of a killed
	// append; everything from it on is discarded and the file is
	// truncated back to the end of the good prefix before appending
	// resumes.
	good := 0
	first := true
	for rest := data; len(rest) > 0; {
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			break
		}
		line := rest[:nl]
		rest = rest[nl+1:]
		if first {
			var h journalHeader
			if err := json.Unmarshal(line, &h); err != nil || h.Format != journalFormat {
				return nil, nil, fmt.Errorf("fleet: %s is not a fleet journal", path)
			}
			if h.Plan != p.Hash {
				return nil, nil, fmt.Errorf("fleet: journal %s belongs to plan %.16s, not %.16s", path, h.Plan, p.Hash)
			}
			first = false
			good += nl + 1
			continue
		}
		var e journalEntry
		if err := json.Unmarshal(line, &e); err != nil {
			break
		}
		if e.Result != nil && e.Shard >= 0 && e.Shard < len(p.Shards) {
			// Replay is idempotent: duplicate records for one shard are
			// legal and the last one wins. Duplicates happen when a
			// successor resumes past a predecessor stalled mid-fsync —
			// the record is not yet visible, the shard re-runs, and the
			// stalled write lands afterwards — so exactly-once append
			// cannot be promised; exactly-once *replay* is promised
			// instead. Determinism makes the duplicates byte-identical
			// in practice; last-wins keeps the rule aligned with "the
			// journal's final say" when they are not.
			done[e.Shard] = e.Result
		}
		good += nl + 1
	}
	if first {
		return nil, nil, fmt.Errorf("fleet: %s is empty or truncated before its header", path)
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, err
	}
	if err := f.Truncate(int64(good)); err != nil {
		f.Close()
		return nil, nil, err
	}
	if _, err := f.Seek(int64(good), 0); err != nil {
		f.Close()
		return nil, nil, err
	}
	return &Journal{path: path, f: f}, done, nil
}

// Record appends one completed shard. The line is flushed and synced
// before Record returns, so a kill immediately afterwards loses no
// completed work.
func (j *Journal) Record(shard int, res *simsvc.JobResult) error {
	return j.append(journalEntry{Shard: shard, Result: res})
}

func (j *Journal) append(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(data); err != nil {
		return err
	}
	return j.f.Sync()
}

// Path returns the journal file path.
func (j *Journal) Path() string { return j.path }

// Close closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}
