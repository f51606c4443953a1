package esm

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"quickstore/internal/disk"
	"quickstore/internal/lock"
	"quickstore/internal/wal"
)

// newSnapServer builds an MVCC-enabled server plus a client factory.
func newSnapServer(t *testing.T, maxBytes int) (*Server, func() *Client) {
	t.Helper()
	srv, err := NewServer(disk.NewMemVolume(), wal.NewMemLog(),
		ServerConfig{BufferPages: 64, MVCC: true, MVCCMaxBytes: maxBytes})
	if err != nil {
		t.Fatal(err)
	}
	return srv, func() *Client {
		return NewClient(NewInProcTransport(srv), ClientConfig{BufferPages: 16})
	}
}

// commitBytes commits value at off on pid in its own transaction.
func commitBytes(t *testing.T, c *Client, pid disk.PageID, off int, value string) {
	t.Helper()
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	i, err := c.FetchPage(pid)
	if err != nil {
		t.Fatal(err)
	}
	data := c.PageData(i)
	old := append([]byte(nil), data[off:off+len(value)]...)
	copy(data[off:], value)
	c.LogUpdate(pid, off, old, []byte(value))
	if err := c.MarkDirty(pid); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
}

// A snapshot session sees the state as of its begin LSN no matter what
// commits after it, and acquires no locks doing so.
func TestSnapshotReadsAreStableAndLockFree(t *testing.T) {
	srv, mk := newSnapServer(t, -1)
	w, r := mk(), mk()
	const off = 256
	if err := w.Begin(); err != nil {
		t.Fatal(err)
	}
	pidA, err := w.AllocPages(2)
	if err != nil {
		t.Fatal(err)
	}
	pidB := pidA + 1
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	commitBytes(t, w, pidA, off, "A-v1")
	commitBytes(t, w, pidB, off, "B-v1")

	grants0, waits0 := srv.locks.Stats()
	if err := r.BeginSnapshot(); err != nil {
		t.Fatal(err)
	}
	snap := r.Snapshot()
	i, err := r.FetchPage(pidA)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.PageData(i)[off : off+4]; string(got) != "A-v1" {
		t.Fatalf("snap read A = %q", got)
	}

	// Overwrite both pages after the snapshot began.
	commitBytes(t, w, pidA, off, "A-v2")
	commitBytes(t, w, pidB, off, "B-v2")

	// B was never fetched in this session: it must come from the version
	// store, not the (now newer) live page.
	i, err = r.FetchPage(pidB)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.PageData(i)[off : off+4]; string(got) != "B-v1" {
		t.Fatalf("snapshot at %d saw a later commit: B = %q, want B-v1", snap, got)
	}
	grants1, waits1 := srv.locks.Stats()
	if grants1 != grants0 || waits1 != waits0 {
		t.Fatalf("snapshot path touched the lock manager: grants %d->%d, waits %d->%d",
			grants0, grants1, waits0, waits1)
	}
	if err := r.EndSnapshot(); err != nil {
		t.Fatal(err)
	}

	// A fresh snapshot moves forward.
	if err := r.BeginSnapshot(); err != nil {
		t.Fatal(err)
	}
	if r.Snapshot() <= snap {
		t.Fatalf("fresh snapshot %d did not advance past %d", r.Snapshot(), snap)
	}
	i, err = r.FetchPage(pidB)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.PageData(i)[off : off+4]; string(got) != "B-v2" {
		t.Fatalf("fresh snapshot missed commit: B = %q", got)
	}
	if err := r.EndSnapshot(); err != nil {
		t.Fatal(err)
	}
	st := srv.mv.Stats()
	if st.Pins != 0 {
		t.Fatalf("pins leaked: %+v", st)
	}
}

// Snapshot readers racing live writers take no lock grants: two writers
// commit under Exclusive page locks on the very pages several snapshot
// sessions sweep, and the lock manager's grant count moves by exactly the
// writers' own locks.
func TestSnapshotReadsUnderConcurrentWritersTakeNoLocks(t *testing.T) {
	const (
		pages   = 8
		off     = 256
		writers = 2
		readers = 3
		sweeps  = 20
	)
	srv, mk := newSnapServer(t, -1)
	setup := mk()
	if err := setup.Begin(); err != nil {
		t.Fatal(err)
	}
	first, err := setup.AllocPages(pages)
	if err != nil {
		t.Fatal(err)
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < pages; p++ {
		commitBytes(t, setup, first+disk.PageID(p), off, "w000")
	}

	grants0, _ := srv.locks.Stats()
	stop := make(chan struct{})
	committed := make(chan struct{}, writers)
	var writerLocks, writerCommits atomic.Int64
	writerErrs := make([]error, writers)
	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			signalled := false
			defer func() {
				if !signalled { // failed before its first commit; unblock the test
					committed <- struct{}{}
				}
			}()
			c := mk()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				pid := first + disk.PageID((w+n)%pages)
				writerErrs[w] = func() error {
					if err := c.Begin(); err != nil {
						return err
					}
					if err := c.Lock(lock.KindPage, uint32(pid), lock.Exclusive); err != nil {
						return err
					}
					writerLocks.Add(1)
					i, err := c.FetchPage(pid)
					if err != nil {
						return err
					}
					data := c.PageData(i)
					old := append([]byte(nil), data[off:off+4]...)
					val := []byte(fmt.Sprintf("w%d%02d", w, n%100))
					copy(data[off:], val)
					c.LogUpdate(pid, off, old, val)
					if err := c.MarkDirty(pid); err != nil {
						return err
					}
					return c.Commit()
				}()
				if writerErrs[w] != nil {
					return
				}
				writerCommits.Add(1)
				if !signalled {
					signalled = true
					committed <- struct{}{}
				}
			}
		}(w)
	}
	// Readers start once every writer is committing, so the sweeps race them.
	for w := 0; w < writers; w++ {
		<-committed
	}

	var reads atomic.Int64
	readerErrs := make([]error, readers)
	var readerWG sync.WaitGroup
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			c := mk()
			readerErrs[r] = func() error {
				for s := 0; s < sweeps; s++ {
					if err := c.BeginSnapshot(); err != nil {
						return err
					}
					for p := 0; p < pages; p++ {
						pid := first + disk.PageID((r+p)%pages)
						i, err := c.FetchPage(pid)
						if err != nil {
							return fmt.Errorf("sweep %d page %d: %w", s, pid, err)
						}
						if got := c.PageData(i)[off : off+4]; got[0] != 'w' {
							return fmt.Errorf("sweep %d page %d: read %q, not a committed value", s, pid, got)
						}
						reads.Add(1)
					}
					if err := c.EndSnapshot(); err != nil {
						return err
					}
				}
				return nil
			}()
		}(r)
	}
	readerWG.Wait()
	close(stop)
	writerWG.Wait()
	for _, err := range append(readerErrs, writerErrs...) {
		if err != nil {
			t.Fatal(err)
		}
	}

	if got, want := reads.Load(), int64(readers*sweeps*pages); got != want {
		t.Fatalf("completed %d snapshot reads, want %d", got, want)
	}
	grants1, _ := srv.locks.Stats()
	if readerGrants := grants1 - grants0 - writerLocks.Load(); readerGrants != 0 {
		t.Fatalf("snapshot readers took %d lock grants alongside %d writer commits, want 0",
			readerGrants, writerCommits.Load())
	}
	if st := srv.mv.Stats(); st.Pins != 0 {
		t.Fatalf("pins leaked: %+v", st)
	}
}

// Session-state guards: no writes inside a snapshot session, no nesting,
// and servers without MVCC refuse the ops outright.
func TestSnapshotSessionGuards(t *testing.T) {
	_, mk := newSnapServer(t, -1)
	c := mk()
	if err := c.BeginSnapshot(); err != nil {
		t.Fatal(err)
	}
	if err := c.BeginSnapshot(); err == nil {
		t.Fatal("nested snapshot allowed")
	}
	if err := c.Begin(); err == nil {
		t.Fatal("write transaction allowed inside a snapshot session")
	}
	if err := c.EndSnapshot(); err != nil {
		t.Fatal(err)
	}
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := c.BeginSnapshot(); err == nil {
		t.Fatal("snapshot allowed inside a write transaction")
	}
	if err := c.Abort(); err != nil {
		t.Fatal(err)
	}

	srv2, err := NewServer(disk.NewMemVolume(), wal.NewMemLog(), ServerConfig{BufferPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewClient(NewInProcTransport(srv2), ClientConfig{BufferPages: 8})
	if err := c2.BeginSnapshot(); err == nil || !strings.Contains(err.Error(), "disabled") {
		t.Fatalf("MVCC-less server accepted a snapshot begin: %v", err)
	}
}

// Under a byte cap, eviction poisons only snapshots that need the evicted
// version; the session recovers by beginning a fresh snapshot.
func TestSnapshotTooOldAfterEviction(t *testing.T) {
	_, mk := newSnapServer(t, disk.PageSize) // room for one retained version
	w, r := mk(), mk()
	const off = 128
	if err := w.Begin(); err != nil {
		t.Fatal(err)
	}
	pid, err := w.AllocPages(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	commitBytes(t, w, pid, off, "v1")

	if err := r.BeginSnapshot(); err != nil {
		t.Fatal(err)
	}
	// Two more versions of the same page: the cap holds one, so the older
	// boundary the reader depends on is evicted.
	commitBytes(t, w, pid, off, "v2")
	commitBytes(t, w, pid, off, "v3")

	_, err = r.FetchPage(pid)
	if err == nil || !strings.Contains(err.Error(), "snapshot too old") {
		t.Fatalf("read below evicted boundary: %v, want snapshot-too-old", err)
	}
	if err := r.EndSnapshot(); err != nil {
		t.Fatal(err)
	}
	if err := r.BeginSnapshot(); err != nil {
		t.Fatal(err)
	}
	i, err := r.FetchPage(pid)
	if err != nil {
		t.Fatalf("fresh snapshot after eviction: %v", err)
	}
	if got := r.PageData(i)[off : off+2]; string(got) != "v3" {
		t.Fatalf("fresh snapshot = %q, want v3", got)
	}
	if err := r.EndSnapshot(); err != nil {
		t.Fatal(err)
	}
}
