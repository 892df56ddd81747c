// Package joblog is the gateway's write-ahead job log: the durability layer
// that makes an accepted submission survive a gateway crash.
//
// The log is a single append-only file of length-prefixed, CRC-framed
// records:
//
//	u32 length | u32 crc32c(body) | body
//
// where body is the JSON encoding of a Record (JSON for debuggability —
// the log is an operator artifact; the wire codec stays reserved for
// protocol traffic). Appends are fsync-BATCHED by zero-wait group commit:
// every Append blocks until its records are durable. The first appender
// to find no fsync running leads: it yields the processor once, so
// appenders already runnable can join, and flushes. Appenders that arrive
// while that fsync runs form the next batch, which the leader flushes as
// soon as its own fsync returns. No appender ever sleeps waiting for
// companions, and a burst still costs one fsync per batch, not one per
// job.
//
// Recovery (Open) replays the valid prefix of the file and is
// truncation-tolerant: a torn final record — the shape a crash mid-write
// leaves behind — is detected by its length/CRC frame and truncated away,
// never parsed. Corruption BEFORE the final record is refused loudly
// (ErrCorrupt): silent data loss in the middle of an acknowledged history
// must never look like a clean recovery.
package joblog

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"runtime"
	"sync"
	"time"
)

// frameHeader is the per-record frame: u32 little-endian body length plus
// u32 CRC-32C (Castagnoli) of the body.
const frameHeader = 8

// MaxRecord bounds one record's body. It matches the wire codec's MaxFrame
// order of magnitude: a record larger than this is a corrupt length field,
// not a legitimate job.
const MaxRecord = 4 << 20

// castagnoli is the CRC-32C table; the same polynomial storage systems use.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports corruption strictly before the final record — history
// that was acknowledged durable and then damaged. Open refuses to treat it
// as a clean recovery.
var ErrCorrupt = errors.New("joblog: corrupt record before the log tail")

// RecordType names the three events the gateway logs.
type RecordType string

// The record types, in the order a job's life emits them.
const (
	// TypeSubmitted is appended — and fsynced — BEFORE the client's
	// submission is acknowledged; it carries everything needed to replay
	// the job into the cluster.
	TypeSubmitted RecordType = "submitted"
	// TypeForwarded maps the gateway job id to the cluster job id the
	// backing node assigned; appended after the cluster accepted the
	// submission.
	TypeForwarded RecordType = "forwarded"
	// TypeDecided closes the job: the cluster reached a guarantee
	// decision (or the job was written off).
	TypeDecided RecordType = "decided"
)

// Record is one logged event. Fields are populated per type: Submitted
// fills Tenant/ClientKey/Deadline/Graph, Forwarded fills ClusterID,
// Decided fills Outcome and DecisionLatency.
type Record struct {
	Type RecordType `json:"type"`
	// ID is the gateway-assigned job id ("g17"), the key every later
	// record refers back to.
	ID string `json:"id"`
	// Seq is the numeric suffix of ID; recovery seeds the gateway's id
	// counter past the highest replayed Seq so restarts never reuse ids.
	Seq       uint64 `json:"seq,omitempty"`
	Tenant    string `json:"tenant,omitempty"`
	ClientKey string `json:"client_key,omitempty"`
	// At is the submission's virtual arrival time; Deadline is relative
	// to it. Both are replayed verbatim.
	At       float64 `json:"at,omitempty"`
	Deadline float64 `json:"deadline,omitempty"`
	// Graph is the submitted DAG in the dag package's JSON schema,
	// verbatim — replay re-submits exactly what was acknowledged.
	Graph           json.RawMessage `json:"graph,omitempty"`
	ClusterID       string          `json:"cluster_id,omitempty"`
	Outcome         string          `json:"outcome,omitempty"`
	DecisionLatency float64         `json:"decision_latency,omitempty"`
}

// Options configures the log's fsync behavior.
type Options struct {
	// NoSync disables fsync entirely (tests and benchmarks on tmpfs where
	// durability is moot). Appends still go through the batch writer so
	// the code path stays the same.
	NoSync bool
	// OnSync, when set, observes every fsync's wall-clock duration — the
	// gateway feeds its joblog fsync-latency histogram from it.
	OnSync func(d time.Duration)

	// failpoint, when set, wraps the file for fault-injection tests:
	// write/sync errors and crash-shaped torn writes are injected there.
	// In-package tests only.
	failpoint func(w syncWriter) syncWriter
}

// syncWriter is the slice of *os.File the log writes through; the
// failpoint writer wraps it to inject crashes at batch boundaries.
type syncWriter interface {
	io.Writer
	Sync() error
}

// Log is an open write-ahead job log. Safe for concurrent Append.
type Log struct {
	opts Options
	f    *os.File
	w    syncWriter

	mu      sync.Mutex
	closed  bool
	pending []chan error // appenders waiting for the running batch
	syncing bool
	err     error // sticky: a failed write or sync poisons the log
}

// Open replays the log at path (creating it if absent), truncates a torn
// tail, and returns the log opened for append plus the replayed records in
// order. Corruption before the tail returns ErrCorrupt.
func Open(path string, opts Options) (*Log, []Record, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	records, valid, err := scan(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	// Truncate the torn tail (no-op when the file ends cleanly), then seek
	// to the end for appends.
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, nil, err
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	l := &Log{opts: opts, f: f, w: f}
	if opts.failpoint != nil {
		l.w = opts.failpoint(f)
	}
	return l, records, nil
}

// scan reads the valid record prefix of f, returning the records and the
// byte offset where validity ends. A bad frame at the tail (torn write) is
// fine — recovery truncates it; a bad frame followed by a GOOD frame means
// mid-file corruption and returns ErrCorrupt.
func scan(f *os.File) ([]Record, int64, error) {
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, 0, err
	}
	var records []Record
	var offset int64
	for int64(len(data))-offset >= frameHeader {
		body, next, ok := frameAt(data, offset)
		if !ok {
			break
		}
		var rec Record
		if err := json.Unmarshal(body, &rec); err != nil {
			// The CRC matched but the body is not a record: that is not a
			// torn write, it is corruption (or a foreign file).
			return nil, 0, fmt.Errorf("%w: undecodable record at offset %d: %v", ErrCorrupt, offset, err)
		}
		records = append(records, rec)
		offset = next
	}
	// Anything after offset must be a torn tail: if another whole valid
	// frame exists further on, the damage is in the middle.
	rest := data[offset:]
	for probe := int64(1); probe+frameHeader <= int64(len(rest)); probe++ {
		if _, _, ok := frameAt(rest, probe); ok {
			return nil, 0, fmt.Errorf("%w: valid frame after damage at offset %d", ErrCorrupt, offset)
		}
	}
	return records, offset, nil
}

// frameAt decodes the frame starting at offset; ok is false when the frame
// is incomplete or fails its CRC.
func frameAt(data []byte, offset int64) (body []byte, next int64, ok bool) {
	if int64(len(data))-offset < frameHeader {
		return nil, 0, false
	}
	n := binary.LittleEndian.Uint32(data[offset:])
	crc := binary.LittleEndian.Uint32(data[offset+4:])
	if n == 0 || n > MaxRecord || offset+frameHeader+int64(n) > int64(len(data)) {
		return nil, 0, false
	}
	body = data[offset+frameHeader : offset+frameHeader+int64(n)]
	if crc32.Checksum(body, castagnoli) != crc {
		return nil, 0, false
	}
	return body, offset + frameHeader + int64(n), true
}

// Append frames the records, writes them with one Write and blocks until
// they are durable. All records of one call share an fsync batch; with no
// records it is a no-op. Concurrent appenders share batches too: an
// appender that finds no fsync running leads, flushing without waiting
// and then again for every appender that queued behind the running
// fsync, until none is left.
func (l *Log) Append(recs ...Record) error {
	if len(recs) == 0 {
		return nil
	}
	var buf []byte
	for _, rec := range recs {
		body, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		if len(body) > MaxRecord {
			return fmt.Errorf("joblog: record of %d bytes exceeds MaxRecord", len(body))
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(body)))
		buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(body, castagnoli))
		buf = append(buf, body...)
	}

	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return fmt.Errorf("joblog: log is closed")
	}
	if l.err == nil {
		if _, err := l.w.Write(buf); err != nil {
			l.err = err
		}
	}
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return err
	}
	done := make(chan error, 1)
	l.pending = append(l.pending, done)
	lead := !l.syncing
	if lead {
		l.syncing = true
	}
	l.mu.Unlock()

	if lead {
		// An appender that saw syncing=true relies on this loop to flush
		// the batch it joined. Each round first yields the processor, so
		// appenders that are runnable but not yet scheduled join the
		// batch; with one processor they could not run during the fsync
		// itself. A yield is not a wait: with nothing runnable it returns
		// at once.
		for {
			runtime.Gosched()
			if !l.flushBatch() {
				break
			}
		}
	}
	return <-done
}

// flushBatch fsyncs the file once and releases every appender that joined
// the batch before the sync started. It reports whether new appenders
// queued during the fsync (the leader then flushes again for them).
func (l *Log) flushBatch() bool {
	l.mu.Lock()
	waiters := l.pending
	l.pending = nil
	l.mu.Unlock()

	var err error
	if !l.opts.NoSync {
		start := time.Now()
		err = l.w.Sync()
		if l.opts.OnSync != nil {
			l.opts.OnSync(time.Since(start))
		}
	}
	l.mu.Lock()
	if err != nil && l.err == nil {
		l.err = err
	}
	err = l.err
	more := len(l.pending) > 0
	if !more {
		l.syncing = false
	}
	l.mu.Unlock()
	for _, ch := range waiters {
		ch <- err
	}
	return more
}

// Sync forces an immediate fsync outside the batch path (Close and tests).
func (l *Log) Sync() error {
	l.mu.Lock()
	if l.closed || l.err != nil {
		err := l.err
		l.mu.Unlock()
		return err
	}
	l.mu.Unlock()
	if l.opts.NoSync {
		return nil
	}
	return l.w.Sync()
}

// Close flushes and closes the file. Further Appends fail.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	var syncErr error
	if !l.opts.NoSync {
		syncErr = l.f.Sync()
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	return syncErr
}

// Replay summarizes a recovered record stream into per-job state: the
// latest known stage of every gateway job id, in first-submission order.
type Replay struct {
	// Jobs holds one entry per submitted gateway job id.
	Jobs []*ReplayJob
	// NextSeq is one past the highest Seq seen; the gateway's id counter
	// resumes here.
	NextSeq uint64
	byID    map[string]*ReplayJob
}

// ReplayJob is one job's recovered state.
type ReplayJob struct {
	Submitted Record
	// ClusterID is set when a forwarded record was recovered: the job
	// reached the cluster under this id before the crash.
	ClusterID string
	// Outcome is set when a decided record was recovered; such jobs are
	// closed and need no replay.
	Outcome string
}

// Undecided reports whether the job still needs driving: submitted (and
// possibly forwarded) but never decided.
func (j *ReplayJob) Undecided() bool { return j.Outcome == "" }

// Summarize folds a recovered record stream into per-job replay state.
// Folding is idempotent by construction: duplicate records of any type
// collapse onto the same job entry, so replaying a log twice (or a log
// that was itself produced by a replay) yields identical state — the
// duplicate-replay test pins this.
func Summarize(records []Record) *Replay {
	r := &Replay{byID: make(map[string]*ReplayJob)}
	for _, rec := range records {
		if rec.Seq >= r.NextSeq {
			r.NextSeq = rec.Seq + 1
		}
		switch rec.Type {
		case TypeSubmitted:
			if _, dup := r.byID[rec.ID]; dup {
				continue // idempotent: same id resubmitted by a replayed log
			}
			j := &ReplayJob{Submitted: rec}
			r.byID[rec.ID] = j
			r.Jobs = append(r.Jobs, j)
		case TypeForwarded:
			if j := r.byID[rec.ID]; j != nil && j.ClusterID == "" {
				j.ClusterID = rec.ClusterID
			}
		case TypeDecided:
			if j := r.byID[rec.ID]; j != nil && j.Outcome == "" {
				j.Outcome = rec.Outcome
			}
		}
	}
	return r
}
