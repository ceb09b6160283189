package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// appendCommitted appends n single-transaction commit records, flushing each
// one so every record lands in its own device frame (tear tests depend on
// frame granularity).
func appendCommitted(t *testing.T, m *Manager, firstTxn, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		mustAppend(t, m, &Record{Txn: TxnID(firstTxn + i), Type: RecCommit,
			After: []byte("payload-padding-for-segment-growth")})
		m.FlushAll()
	}
}

func openFileManager(t *testing.T, dir string, opts Options) *Manager {
	t.Helper()
	opts.Dir = dir
	m, err := Open(opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return m
}

func TestFileDeviceRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := openFileManager(t, dir, Options{Sync: SyncOnFlush})
	mustAppend(t, m, &Record{Txn: 1, Type: RecBegin})
	l2 := mustAppend(t, m, &Record{Txn: 1, Type: RecInsert, TableID: 3, After: []byte("hello")})
	m.FlushAll()
	next := m.CurrentLSN()
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// A new process opens the same directory: records, LSN assignment, and
	// the transaction chain all resume.
	m2 := openFileManager(t, dir, Options{Sync: SyncOnFlush})
	defer m2.Close()
	recs, err := m2.DurableRecords()
	if err != nil {
		t.Fatalf("DurableRecords after reopen: %v", err)
	}
	if len(recs) != 2 || recs[1].Txn != 1 || string(recs[1].After) != "hello" {
		t.Fatalf("reopened records = %+v", recs)
	}
	if m2.CurrentLSN() != next {
		t.Fatalf("CurrentLSN after reopen = %d, want %d", m2.CurrentLSN(), next)
	}
	l3 := mustAppend(t, m2, &Record{Txn: 1, PrevLSN: l2, Type: RecUpdate, After: []byte("more")})
	m2.FlushAll()
	recs, _ = m2.DurableRecords()
	if len(recs) != 3 || recs[2].LSN != l3 || recs[2].PrevLSN != l2 {
		t.Fatalf("post-reopen append chain broken: %+v", recs[len(recs)-1])
	}
}

func TestFileDeviceSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	m := openFileManager(t, dir, Options{SegmentSize: 512})
	const n = 40
	for i := 0; i < n; i++ {
		mustAppend(t, m, &Record{Txn: TxnID(i + 1), Type: RecCommit,
			After: []byte("a fairly long payload to force rotation across segments")})
		m.FlushAll() // flush each record so many frames (and rotations) happen
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) < 3 {
		t.Fatalf("expected >= 3 segment files, got %v (%v)", segs, err)
	}
	m2 := openFileManager(t, dir, Options{SegmentSize: 512})
	defer m2.Close()
	recs, err := m2.DurableRecords()
	if err != nil {
		t.Fatalf("DurableRecords: %v", err)
	}
	if len(recs) != n {
		t.Fatalf("recovered %d records across segments, want %d", len(recs), n)
	}
	for i, r := range recs {
		if r.Txn != TxnID(i+1) {
			t.Fatalf("record %d out of order: txn %d", i, r.Txn)
		}
	}
}

// lastSegment returns the path of the highest-LSN segment in dir.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s: %v", dir, err)
	}
	last, lastLSN := "", LSN(0)
	for _, s := range segs {
		first, ok := parseSegmentName(filepath.Base(s))
		if !ok {
			t.Fatalf("unparseable segment name %s", s)
		}
		if last == "" || first > lastLSN {
			last, lastLSN = s, first
		}
	}
	return last
}

func TestFileDeviceTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	m := openFileManager(t, dir, Options{Sync: SyncOnFlush})
	appendCommitted(t, m, 1, 5)
	m.Close()

	// Tear the tail mid-frame, as a crash mid-write would.
	seg := lastSegment(t, dir)
	st, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, st.Size()-7); err != nil {
		t.Fatal(err)
	}

	m2 := openFileManager(t, dir, Options{Sync: SyncOnFlush})
	recs, err := m2.DurableRecords()
	if err != nil {
		t.Fatalf("DurableRecords after torn tail: %v", err)
	}
	if len(recs) != 4 {
		t.Fatalf("recovered %d records after torn tail, want 4 (last frame dropped)", len(recs))
	}
	// The log keeps working after the truncation: new appends land after the
	// valid prefix and survive another restart.
	appendCommitted(t, m2, 100, 2)
	m2.Close()
	m3 := openFileManager(t, dir, Options{Sync: SyncOnFlush})
	defer m3.Close()
	recs, _ = m3.DurableRecords()
	if len(recs) != 6 || recs[5].Txn != 101 {
		t.Fatalf("post-truncation appends lost: %d records, tail %+v", len(recs), recs[len(recs)-1])
	}
}

func TestFileDeviceChecksumFlipDropsFrame(t *testing.T) {
	dir := t.TempDir()
	m := openFileManager(t, dir, Options{Sync: SyncOnFlush})
	appendCommitted(t, m, 1, 3)
	m.Close()

	// Flip one payload byte of the last frame: its checksum no longer
	// matches, so recovery must stop at the previous frame.
	seg := lastSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	m2 := openFileManager(t, dir, Options{Sync: SyncOnFlush})
	defer m2.Close()
	recs, err := m2.DurableRecords()
	if err != nil {
		t.Fatalf("DurableRecords after checksum flip: %v", err)
	}
	if len(recs) != 2 {
		t.Fatalf("recovered %d records after checksum flip, want 2", len(recs))
	}
}

func TestFileDeviceDroppedTrailingSegment(t *testing.T) {
	dir := t.TempDir()
	m := openFileManager(t, dir, Options{SegmentSize: 256, Sync: SyncOnFlush})
	const n = 12
	for i := 0; i < n; i++ {
		mustAppend(t, m, &Record{Txn: TxnID(i + 1), Type: RecCommit,
			After: []byte("enough payload bytes that segments rotate quickly here")})
		m.FlushAll()
	}
	m.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) < 3 {
		t.Fatalf("need >= 3 segments, got %d", len(segs))
	}
	if err := os.Remove(lastSegment(t, dir)); err != nil {
		t.Fatal(err)
	}

	m2 := openFileManager(t, dir, Options{SegmentSize: 256, Sync: SyncOnFlush})
	defer m2.Close()
	recs, err := m2.DurableRecords()
	if err != nil {
		t.Fatalf("DurableRecords after dropped segment: %v", err)
	}
	if len(recs) == 0 || len(recs) >= n {
		t.Fatalf("recovered %d records, want a non-empty strict prefix of %d", len(recs), n)
	}
	for i, r := range recs {
		if r.Txn != TxnID(i+1) {
			t.Fatalf("record %d out of order after dropped segment: txn %d", i, r.Txn)
		}
	}
}

func TestFileDeviceDroppedMiddleSegmentStopsAtGap(t *testing.T) {
	dir := t.TempDir()
	m := openFileManager(t, dir, Options{SegmentSize: 256, Sync: SyncOnFlush})
	for i := 0; i < 12; i++ {
		mustAppend(t, m, &Record{Txn: TxnID(i + 1), Type: RecCommit,
			After: []byte("enough payload bytes that segments rotate quickly here")})
		m.FlushAll()
	}
	m.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) < 3 {
		t.Fatalf("need >= 3 segments, got %d", len(segs))
	}
	// Remove a middle segment: everything after the gap is unreachable and
	// must be discarded, not replayed out of order.
	if err := os.Remove(segs[1]); err != nil {
		t.Fatal(err)
	}
	m2 := openFileManager(t, dir, Options{SegmentSize: 256, Sync: SyncOnFlush})
	defer m2.Close()
	recs, err := m2.DurableRecords()
	if err != nil {
		t.Fatalf("DurableRecords after dropped middle segment: %v", err)
	}
	for i, r := range recs {
		if r.Txn != TxnID(i+1) {
			t.Fatalf("record %d out of order after gap: txn %d", i, r.Txn)
		}
	}
	if rem, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg")); len(rem) > 1 {
		t.Fatalf("orphan segments past the gap survived: %v", rem)
	}
}

func TestSyncPolicyAccounting(t *testing.T) {
	// SyncOnFlush: exactly one fsync per device write.
	dir := t.TempDir()
	m := openFileManager(t, dir, Options{Sync: SyncOnFlush})
	appendCommitted(t, m, 1, 4)
	appendCommitted(t, m, 10, 4)
	st := m.FlushStats()
	if st.Flushes == 0 || st.Syncs != st.Flushes {
		t.Fatalf("SyncOnFlush: syncs=%d flushes=%d, want equal and > 0", st.Syncs, st.Flushes)
	}
	m.Close()

	// SyncNone: no fsyncs at all.
	m2 := openFileManager(t, t.TempDir(), Options{Sync: SyncNone})
	appendCommitted(t, m2, 1, 4)
	if st := m2.FlushStats(); st.Syncs != 0 {
		t.Fatalf("SyncNone issued %d fsyncs", st.Syncs)
	}
	m2.Close()

	// SyncInterval: fsyncs arrive on the cadence, independent of flushes.
	m3 := openFileManager(t, t.TempDir(), Options{Sync: SyncInterval, SyncEvery: time.Millisecond})
	appendCommitted(t, m3, 1, 4)
	deadline := time.Now().Add(2 * time.Second)
	for m3.FlushStats().Syncs == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if st := m3.FlushStats(); st.Syncs == 0 {
		t.Fatal("SyncInterval never fsynced")
	}
	m3.Close()
}

func TestMemDeviceStillDefault(t *testing.T) {
	m := NewManager()
	defer m.Close()
	if _, ok := m.dev.(*memDevice); !ok {
		t.Fatalf("NewManager device = %T, want memDevice", m.dev)
	}
	mustAppend(t, m, &Record{Txn: 1, Type: RecCommit})
	m.FlushAll()
	if recs, err := m.DurableRecords(); err != nil || len(recs) != 1 {
		t.Fatalf("mem device round trip: %v records, err %v", len(recs), err)
	}
}

// failingDevice accepts writes until armed, then fails every Append. A failed
// append never reaches the backing store, so (like the real devices) there is
// nothing for Unappend to roll back.
type failingDevice struct {
	mem        memDevice
	fail       bool
	lastFailed bool
}

func (d *failingDevice) Append(chunk []byte, firstLSN LSN) error {
	if d.fail {
		d.lastFailed = true
		return fmt.Errorf("injected device failure")
	}
	d.lastFailed = false
	return d.mem.Append(chunk, firstLSN)
}
func (d *failingDevice) Sync() error                         { return nil }
func (d *failingDevice) ReadAll() (LSN, []byte, error)       { return d.mem.ReadAll() }
func (d *failingDevice) TruncateBefore(lsn LSN) (LSN, error) { return d.mem.TruncateBefore(lsn) }
func (d *failingDevice) Close() error                        { return d.mem.Close() }

func TestDeviceFailureFailsStopWithoutFalseDurability(t *testing.T) {
	dev := &failingDevice{}
	m, err := Open(Options{Device: dev})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer m.Close()
	mustAppend(t, m, &Record{Txn: 1, Type: RecCommit})
	m.FlushAll()
	durableBefore := m.FlushedLSN()

	// Arm the failure: the next flush must not advance the durable
	// watermark, must complete its callbacks, and must fail the manager.
	dev.fail = true
	lsn := mustAppend(t, m, &Record{Txn: 2, Type: RecCommit})
	done := make(chan struct{})
	go func() {
		m.Flush(lsn) // must not hang
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Flush hung on a failed device")
	}
	if m.Err() == nil {
		t.Fatal("device failure not latched")
	}
	if m.FlushedLSN() != durableBefore {
		t.Fatalf("FlushedLSN advanced past a failed write: %d -> %d", durableBefore, m.FlushedLSN())
	}
	if _, err := m.Append(&Record{Txn: 3, Type: RecCommit}); err == nil {
		t.Fatal("Append accepted after device failure")
	}
	// The durable image still matches what actually landed.
	if recs, err := m.DurableRecords(); err != nil || len(recs) != 1 {
		t.Fatalf("durable records after failure = %d (%v), want 1", len(recs), err)
	}
}

func (d *failingDevice) Unappend() error {
	if d.lastFailed {
		return nil
	}
	return d.mem.Unappend()
}

// syncFailingDevice wraps a FileDevice and fails Sync on demand, leaving the
// preceding Append's bytes in the segment file — the fsync-failure shape.
type syncFailingDevice struct {
	*FileDevice
	failSync bool
}

func (d *syncFailingDevice) Sync() error {
	if d.failSync {
		return fmt.Errorf("injected fsync failure")
	}
	return d.FileDevice.Sync()
}

func TestFsyncFailureDoesNotResurrectFailedCommits(t *testing.T) {
	dir := t.TempDir()
	fdev, _, stream, err := OpenFileDevice(dir, 0)
	if err != nil {
		t.Fatalf("OpenFileDevice: %v", err)
	}
	if len(stream) != 0 {
		t.Fatalf("fresh dir has %d stream bytes", len(stream))
	}
	dev := &syncFailingDevice{FileDevice: fdev}
	m, err := Open(Options{Device: dev, Sync: SyncOnFlush})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	mustAppend(t, m, &Record{Txn: 1, Type: RecCommit})
	m.FlushAll()

	// The write lands in the segment file, then the fsync fails: the commit
	// is reported not-durable, so its bytes must be rolled back off the
	// device — otherwise the next open would replay it as a winner.
	dev.failSync = true
	lsn := mustAppend(t, m, &Record{Txn: 2, Type: RecCommit})
	m.Flush(lsn)
	if m.Err() == nil {
		t.Fatal("fsync failure not latched")
	}
	m.Close()

	m2, err := Open(Options{Dir: dir, Sync: SyncOnFlush})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer m2.Close()
	recs, err := m2.DurableRecords()
	if err != nil {
		t.Fatalf("DurableRecords: %v", err)
	}
	if len(recs) != 1 || recs[0].Txn != 1 {
		t.Fatalf("reopen sees %d records (want only txn 1's commit): %+v", len(recs), recs)
	}
}

func TestOpenWithInjectedPopulatedDeviceResumes(t *testing.T) {
	dir := t.TempDir()
	m := openFileManager(t, dir, Options{Sync: SyncOnFlush})
	appendCommitted(t, m, 1, 3)
	next := m.CurrentLSN()
	m.Close()

	// Hand Open an already-populated device directly: LSN assignment and the
	// durable image must resume exactly as the Dir path does.
	dev, _, _, err := OpenFileDevice(dir, 0)
	if err != nil {
		t.Fatalf("OpenFileDevice: %v", err)
	}
	m2, err := Open(Options{Device: dev, Sync: SyncOnFlush})
	if err != nil {
		t.Fatalf("Open with injected device: %v", err)
	}
	defer m2.Close()
	if m2.CurrentLSN() != next {
		t.Fatalf("CurrentLSN with injected device = %d, want %d", m2.CurrentLSN(), next)
	}
	recs, err := m2.DurableRecords()
	if err != nil || len(recs) != 3 {
		t.Fatalf("durable records = %d (%v), want 3", len(recs), err)
	}
	mustAppend(t, m2, &Record{Txn: 9, Type: RecCommit})
	m2.FlushAll()
	if recs, _ := m2.DurableRecords(); len(recs) != 4 || recs[3].Txn != 9 {
		t.Fatalf("append after injected-device resume broken: %d records", len(recs))
	}
}

func TestFileDeviceDirectoryLockedAgainstSecondOpen(t *testing.T) {
	dir := t.TempDir()
	m := openFileManager(t, dir, Options{Sync: SyncOnFlush})
	appendCommitted(t, m, 1, 2)

	// A second open of a live directory must fail loudly instead of reading
	// the writer's tail as torn and truncating it.
	if _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("second Open of a live log dir succeeded")
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Close releases the flock: the directory reopens normally.
	m2 := openFileManager(t, dir, Options{Sync: SyncOnFlush})
	defer m2.Close()
	if recs, err := m2.DurableRecords(); err != nil || len(recs) != 2 {
		t.Fatalf("reopen after release saw %d records (%v), want 2", len(recs), err)
	}
}

func TestFileDeviceMissingFirstSegmentResumesAtBase(t *testing.T) {
	dir := t.TempDir()
	m := openFileManager(t, dir, Options{SegmentSize: 256, Sync: SyncOnFlush})
	for i := 0; i < 12; i++ {
		mustAppend(t, m, &Record{Txn: TxnID(i + 1), Type: RecCommit,
			After: []byte("enough payload bytes that segments rotate quickly here")})
		m.FlushAll()
	}
	next := m.CurrentLSN()
	m.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) < 3 {
		t.Fatalf("need >= 3 segments, got %d", len(segs))
	}
	// A log whose first segment is gone is exactly what TruncateBefore leaves
	// behind a checkpoint: the wal layer resumes from the surviving suffix and
	// reports its base, and it is the engine's recovery that refuses a base no
	// verified checkpoint image covers (see engine.Open).
	if err := os.Remove(segs[0]); err != nil {
		t.Fatal(err)
	}
	m2 := openFileManager(t, dir, Options{SegmentSize: 256, Sync: SyncOnFlush})
	defer m2.Close()
	wantBase, ok := parseSegmentName(filepath.Base(segs[1]))
	if !ok {
		t.Fatalf("unparseable segment name %s", segs[1])
	}
	if m2.TailBase() != wantBase {
		t.Fatalf("TailBase = %d, want %d (second segment's first LSN)", m2.TailBase(), wantBase)
	}
	if m2.CurrentLSN() != next {
		t.Fatalf("CurrentLSN after losing the first segment = %d, want %d (LSNs are logical offsets)",
			m2.CurrentLSN(), next)
	}
	recs, err := m2.DurableRecords()
	if err != nil {
		t.Fatalf("DurableRecords: %v", err)
	}
	if len(recs) == 0 || len(recs) >= 12 {
		t.Fatalf("recovered %d records, want a non-empty strict suffix of 12", len(recs))
	}
	if recs[0].Txn == 1 {
		t.Fatal("records below the missing segment resurrected")
	}
	if rem, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg")); len(rem) != len(segs)-1 {
		t.Fatalf("open deleted survivors: %d segments left, want %d", len(rem), len(segs)-1)
	}
}
