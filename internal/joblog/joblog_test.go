package joblog

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// testOpts keeps real fsync on: tmp dirs are cheap and the sync path is
// exactly what the failpoint tests target.
func testOpts() Options { return Options{} }

func rec(t RecordType, id string, seq uint64) Record {
	return Record{Type: t, ID: id, Seq: seq, Tenant: "acme",
		Deadline: 40, Graph: json.RawMessage(`{"name":"g"}`)}
}

func openOrDie(t *testing.T, path string, opts Options) (*Log, []Record) {
	t.Helper()
	l, records, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	return l, records
}

func TestAppendAndRecover(t *testing.T) {
	path := filepath.Join(t.TempDir(), "joblog")
	l, records := openOrDie(t, path, testOpts())
	if len(records) != 0 {
		t.Fatalf("fresh log replayed %d records", len(records))
	}
	want := []Record{
		rec(TypeSubmitted, "g0", 0),
		{Type: TypeForwarded, ID: "g0", ClusterID: "j1@2"},
		rec(TypeSubmitted, "g1", 1),
		{Type: TypeDecided, ID: "g0", Outcome: "accepted-distributed"},
	}
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, got := openOrDie(t, path, testOpts())
	defer l2.Close()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Type != want[i].Type || got[i].ID != want[i].ID {
			t.Errorf("record %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	rep := Summarize(got)
	if len(rep.Jobs) != 2 {
		t.Fatalf("summarized %d jobs, want 2", len(rep.Jobs))
	}
	if rep.NextSeq != 2 {
		t.Errorf("NextSeq = %d, want 2", rep.NextSeq)
	}
	if j := rep.Jobs[0]; j.Undecided() || j.ClusterID != "j1@2" || j.Outcome != "accepted-distributed" {
		t.Errorf("job g0 state wrong: %+v", j)
	}
	if j := rep.Jobs[1]; !j.Undecided() || j.ClusterID != "" {
		t.Errorf("job g1 should be undecided and unforwarded: %+v", j)
	}
}

// A torn final record — the crash-mid-write shape — must be truncated away
// on recovery, and the log must keep working from the truncated offset.
func TestTornFinalRecordTruncated(t *testing.T) {
	for _, tear := range []struct {
		name string
		cut  func(data []byte) []byte
	}{
		{"half the header", func(d []byte) []byte { return d[:len(d)-3] }},
		{"header only", nil}, // filled below: cut back to last header
		{"half the body", func(d []byte) []byte { return d[:len(d)-10] }},
		{"corrupt tail crc", func(d []byte) []byte {
			d[len(d)-1] ^= 0xff
			return d
		}},
	} {
		t.Run(tear.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "joblog")
			l, _ := openOrDie(t, path, testOpts())
			for i := 0; i < 3; i++ {
				if err := l.Append(rec(TypeSubmitted, fmt.Sprintf("g%d", i), uint64(i))); err != nil {
					t.Fatal(err)
				}
			}
			l.Close()

			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if tear.cut != nil {
				data = tear.cut(data)
			} else {
				// Cut everything past the last record's frame header.
				_, valid, err := scanBytes(t, data[:len(data)-1])
				if err != nil {
					t.Fatal(err)
				}
				data = data[:valid+frameHeader]
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}

			l2, records := openOrDie(t, path, testOpts())
			if len(records) != 2 {
				t.Fatalf("replayed %d records after tear, want 2", len(records))
			}
			// The truncated log must accept appends cleanly…
			if err := l2.Append(rec(TypeSubmitted, "g9", 9)); err != nil {
				t.Fatal(err)
			}
			l2.Close()
			// …and a third recovery sees exactly the two survivors plus the
			// new record.
			l3, records := openOrDie(t, path, testOpts())
			defer l3.Close()
			if len(records) != 3 || records[2].ID != "g9" {
				t.Fatalf("post-tear append not recovered: %+v", records)
			}
		})
	}
}

// scanBytes runs the recovery scanner over an in-memory image via a temp
// file (scan takes the open *os.File Open hands it).
func scanBytes(t *testing.T, data []byte) ([]Record, int64, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "scan")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	return scan(f)
}

// Damage strictly before the tail is corruption, not a torn write: the
// bytes were acknowledged durable. Recovery must refuse.
func TestMidFileCorruptionRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "joblog")
	l, _ := openOrDie(t, path, testOpts())
	for i := 0; i < 4; i++ {
		if err := l.Append(rec(TypeSubmitted, fmt.Sprintf("g%d", i), uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff // flip a bit in the middle of the history
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Open(path, testOpts())
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mid-file corruption recovered silently: err=%v", err)
	}
}

// Replaying the same history twice (a log written by a process that itself
// replayed) must fold to identical state: duplicate submitted/forwarded/
// decided records collapse onto one job entry.
func TestDuplicateReplayIdempotent(t *testing.T) {
	history := []Record{
		rec(TypeSubmitted, "g0", 0),
		{Type: TypeForwarded, ID: "g0", ClusterID: "j1@0"},
		rec(TypeSubmitted, "g1", 1),
		{Type: TypeDecided, ID: "g0", Outcome: "rejected"},
	}
	once := Summarize(history)
	twice := Summarize(append(append([]Record(nil), history...), history...))
	if len(once.Jobs) != len(twice.Jobs) {
		t.Fatalf("duplicate replay changed job count: %d vs %d", len(once.Jobs), len(twice.Jobs))
	}
	for i := range once.Jobs {
		a, b := once.Jobs[i], twice.Jobs[i]
		if a.Submitted.ID != b.Submitted.ID || a.ClusterID != b.ClusterID || a.Outcome != b.Outcome {
			t.Errorf("job %d diverged under duplicate replay: %+v vs %+v", i, a, b)
		}
	}
	if once.NextSeq != twice.NextSeq {
		t.Errorf("NextSeq diverged: %d vs %d", once.NextSeq, twice.NextSeq)
	}
	// A conflicting duplicate (same id, different outcome) must keep the
	// FIRST decision — the one that was acknowledged first.
	conflicted := append(append([]Record(nil), history...),
		Record{Type: TypeDecided, ID: "g0", Outcome: "accepted-local"})
	if got := Summarize(conflicted).Jobs[0].Outcome; got != "rejected" {
		t.Errorf("later conflicting decision overwrote the first: %q", got)
	}
}

// crashWriter is the failpoint writer: it passes writes through until the
// configured fsync boundary, then drops every byte written after the last
// completed sync — the shape a power cut at a batch boundary leaves when
// the page cache never reached the platter.
type crashWriter struct {
	mu          sync.Mutex
	synced      []byte // bytes guaranteed durable (made it to a completed Sync)
	buffered    []byte // bytes written since the last completed Sync
	crashOnSync int    // crash when this many syncs have completed
	syncs       int
	crashed     bool
}

var errCrashed = errors.New("joblog_test: injected crash")

func (c *crashWriter) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return 0, errCrashed
	}
	c.buffered = append(c.buffered, p...)
	return len(p), nil
}

func (c *crashWriter) Sync() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return errCrashed
	}
	if c.syncs == c.crashOnSync {
		// The crash hits AT the batch boundary: everything buffered since
		// the last sync is lost, possibly mid-record.
		if tear := len(c.buffered) / 2; tear > 0 {
			c.synced = append(c.synced, c.buffered[:tear]...)
		}
		c.crashed = true
		return errCrashed
	}
	c.synced = append(c.synced, c.buffered...)
	c.buffered = nil
	c.syncs++
	return nil
}

// durableImage is what the disk holds after the "crash".
func (c *crashWriter) durableImage() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.synced...)
}

// TestFsyncBatchBoundaryCrash injects a crash at an fsync-batch boundary:
// records flushed by completed batches survive; the batch in flight is torn
// mid-record and must truncate away on recovery, leaving a log equal to
// exactly the acknowledged prefix.
func TestFsyncBatchBoundaryCrash(t *testing.T) {
	cw := &crashWriter{crashOnSync: 2}
	opts := testOpts()
	opts.failpoint = func(syncWriter) syncWriter { return cw }

	dir := t.TempDir()
	l, _ := openOrDie(t, filepath.Join(dir, "joblog-live"), opts)
	var acked []string
	for i := 0; ; i++ {
		if i > 100 {
			t.Fatal("crash never fired")
		}
		id := fmt.Sprintf("g%d", i)
		err := l.Append(rec(TypeSubmitted, id, uint64(i)))
		if err != nil {
			if !errors.Is(err, errCrashed) {
				t.Fatalf("unexpected append error: %v", err)
			}
			break
		}
		acked = append(acked, id)
	}
	// Every append after the crash fails fast: the log is poisoned, no
	// acknowledgment can follow a lost write.
	if err := l.Append(rec(TypeSubmitted, "late", 999)); !errors.Is(err, errCrashed) {
		t.Fatalf("append after crash returned %v, want the sticky crash error", err)
	}

	// "Reboot": recover from the bytes that actually reached the platter.
	image := filepath.Join(dir, "joblog-rebooted")
	if err := os.WriteFile(image, cw.durableImage(), 0o644); err != nil {
		t.Fatal(err)
	}
	l2, records := openOrDie(t, image, testOpts())
	defer l2.Close()

	// The recovered set must be exactly a prefix of the acknowledged ids:
	// nothing acknowledged-then-lost is tolerated SILENTLY (the append
	// error above is the loud half), and nothing unacknowledged may
	// resurrect out of order.
	if len(records) > len(acked) {
		t.Fatalf("recovered %d records but only %d were acknowledged", len(records), len(acked))
	}
	for i, r := range records {
		if r.ID != acked[i] {
			t.Errorf("recovered record %d is %s, want %s", i, r.ID, acked[i])
		}
	}
	// And every record from a COMPLETED batch is there: the torn tail can
	// only eat the final, in-flight batch. With 2 completed syncs at least
	// 2 records must survive.
	if len(records) < 2 {
		t.Errorf("only %d records survived 2 completed fsync batches", len(records))
	}
}

// Concurrent appends share fsync batches and all land durably.
func TestConcurrentAppendsAllDurable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "joblog")
	syncs := 0
	opts := testOpts()
	opts.OnSync = func(time.Duration) { syncs++ }
	l, _ := openOrDie(t, path, opts)

	const n = 64
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = l.Append(rec(TypeSubmitted, fmt.Sprintf("g%d", i), uint64(i)))
		}(i)
	}
	wg.Wait()
	l.Close()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if syncs >= n {
		t.Errorf("%d fsyncs for %d concurrent appends — batching is not happening", syncs, n)
	}
	l2, records := openOrDie(t, path, testOpts())
	defer l2.Close()
	if len(records) != n {
		t.Fatalf("recovered %d of %d concurrent appends", len(records), n)
	}
}

// tearingWriter passes writes through to the file until the armed one,
// which it cuts off after tearAt bytes: the shape a crash mid-write leaves
// when the kernel had taken only part of the buffer.
type tearingWriter struct {
	syncWriter
	writes  int
	tearOn  int // 1-based index of the write to tear
	tearAt  int
	errTorn error
}

func (w *tearingWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes != w.tearOn {
		return w.syncWriter.Write(p)
	}
	n, _ := w.syncWriter.Write(p[:w.tearAt])
	return n, w.errTorn
}

// A multi-record Append is one Write. Torn partway through the batch, the
// Append must fail, and recovery must keep whole records only: the records
// before the tear, never a fragment of the one it cut.
func TestTornMultiRecordAppend(t *testing.T) {
	batch := []Record{
		{Type: TypeDecided, ID: "g1", Outcome: "accepted-local"},
		{Type: TypeDecided, ID: "g2", Outcome: "rejected"},
		{Type: TypeDecided, ID: "g3", Outcome: "accepted-distributed"},
	}
	frameLen := func(r Record) int {
		body, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return frameHeader + len(body)
	}
	errTorn := errors.New("joblog_test: torn write")
	tw := &tearingWriter{tearOn: 2, tearAt: frameLen(batch[0]) + frameLen(batch[1])/2, errTorn: errTorn}
	opts := testOpts()
	opts.failpoint = func(w syncWriter) syncWriter {
		tw.syncWriter = w
		return tw
	}

	path := filepath.Join(t.TempDir(), "joblog")
	l, _ := openOrDie(t, path, opts)
	if err := l.Append(rec(TypeSubmitted, "g0", 0)); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(batch...); !errors.Is(err, errTorn) {
		t.Fatalf("torn batch append returned %v, want the write error", err)
	}
	if err := l.Append(rec(TypeSubmitted, "late", 9)); !errors.Is(err, errTorn) {
		t.Fatalf("append after a torn write returned %v, want the sticky write error", err)
	}
	l.Close()

	l2, records := openOrDie(t, path, testOpts())
	defer l2.Close()
	var ids []string
	for _, r := range records {
		ids = append(ids, r.ID)
	}
	if fmt.Sprint(ids) != "[g0 g1]" {
		t.Fatalf("recovered %v, want [g0 g1]: the whole records before the tear", ids)
	}
	if r := records[1]; r.Type != batch[0].Type || r.Outcome != batch[0].Outcome {
		t.Errorf("recovered batch record %+v, want %+v", records[1], batch[0])
	}
}

// Append with no records is a no-op: no write, no fsync.
func TestAppendNothing(t *testing.T) {
	syncs := 0
	opts := testOpts()
	opts.OnSync = func(time.Duration) { syncs++ }
	l, _ := openOrDie(t, filepath.Join(t.TempDir(), "joblog"), opts)
	defer l.Close()
	if err := l.Append(); err != nil {
		t.Fatal(err)
	}
	if syncs != 0 {
		t.Errorf("empty Append cost %d fsyncs", syncs)
	}
}

// blockingSync holds the first Sync until release is closed; entered is
// closed once that Sync has started.
type blockingSync struct {
	syncWriter
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func (b *blockingSync) Sync() error {
	b.once.Do(func() {
		close(b.entered)
		<-b.release
	})
	return b.syncWriter.Sync()
}

// Appenders that arrive while the leader's fsync runs form exactly one
// next batch: with the leader held inside Sync while n appenders queue,
// the whole run costs two fsyncs and every record is recovered.
func TestArrivalsDuringFsyncFormNextBatch(t *testing.T) {
	const n = 16
	bs := &blockingSync{entered: make(chan struct{}), release: make(chan struct{})}
	var syncs atomic.Int32
	opts := testOpts()
	opts.OnSync = func(time.Duration) { syncs.Add(1) }
	opts.failpoint = func(w syncWriter) syncWriter {
		bs.syncWriter = w
		return bs
	}
	path := filepath.Join(t.TempDir(), "joblog")
	l, _ := openOrDie(t, path, opts)

	errs := make([]error, n+1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		errs[0] = l.Append(rec(TypeSubmitted, "g0", 0))
	}()
	<-bs.entered
	for i := 1; i <= n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = l.Append(rec(TypeSubmitted, fmt.Sprintf("g%d", i), uint64(i)))
		}(i)
	}
	// Wait until every appender has written and queued behind the held
	// fsync, then let the leader go.
	for queued := 0; queued < n; {
		runtime.Gosched()
		l.mu.Lock()
		queued = len(l.pending)
		l.mu.Unlock()
	}
	close(bs.release)
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if got := syncs.Load(); got != 2 {
		t.Errorf("%d fsyncs, want 2: the leader's and one for everyone queued behind it", got)
	}
	l2, records := openOrDie(t, path, testOpts())
	defer l2.Close()
	if len(records) != n+1 {
		t.Fatalf("recovered %d of %d records", len(records), n+1)
	}
}
