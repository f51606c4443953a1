package core

import (
	"testing"

	"quickstore/internal/btree"
	"quickstore/internal/sim"
)

// TestHotIndexPagesSurviveDataFlood is the regression test for the T3
// pathology: a stream of mapped data pages flooding a small pool must not
// evict the constantly referenced B-tree pages. Before the stale-data
// preference in SimplifiedClock.Victim, every eviction landed on an index
// leaf and each index operation became a page read.
func TestHotIndexPagesSurviveDataFlood(t *testing.T) {
	e := newEnv(t)
	s := e.session(512, Config{BulkLoad: true}, true)

	// A database of 120 single-object pages plus an index over them.
	s.Begin()
	cl := s.NewCluster()
	tr, err := btree.Create(s.Client())
	if err != nil {
		t.Fatal(err)
	}
	refs := make([]Ref, 120)
	for i := range refs {
		cl.Break()
		refs[i], err = s.Alloc(cl, 64, nil)
		if err != nil {
			t.Fatal(err)
		}
		pid, off, err := s.PageOf(refs[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Insert(btree.IntKey(int64(i)), s.metaOIDFor(pid)); err != nil {
			t.Fatal(err)
		}
		_ = off
	}
	if err := s.SetRoot("first", refs[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	e.cold()

	// A 48-frame session: the 120 data pages cannot all stay resident, but
	// the handful of index pages are touched on every iteration and must.
	s2 := e.session(48, Config{}, false)
	s2.Begin()
	tr2 := btree.Open(s2.Client(), tr.RootPage())
	// Warm the index.
	if _, err := tr2.Lookup(btree.IntKey(0)); err != nil {
		t.Fatal(err)
	}
	// Interleave data-page faults (via RefForPage + dereference) with
	// index lookups.
	base := e.clock.Snapshot()
	for round := 0; round < 3; round++ {
		for i := range refs {
			oids, err := tr2.Lookup(btree.IntKey(int64(i)))
			if err != nil {
				t.Fatal(err)
			}
			if len(oids) != 1 {
				t.Fatalf("key %d: %d hits", i, len(oids))
			}
			ref, err := s2.RefForPage(oids[0].Page, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s2.Space().ReadU32(ref + 24); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s2.Commit(); err != nil {
		t.Fatal(err)
	}
	d := e.clock.Snapshot().Sub(base)
	reads := d.Count(sim.CtrClientRead)
	// 3 rounds over 120 uncacheable data pages cost ~360 reads; the index
	// pages (a handful) must not add hundreds of re-reads on top.
	if reads > 500 {
		t.Fatalf("client reads = %d; hot index pages are being evicted", reads)
	}
}

// TestMetadataDominatedPoolUsesClassicClock is the regression test for the
// generation pathology: when the pool is dominated by storage-manager pages
// (here, large-object data) and only a handful of mapped pages exist, the
// policy must evict cold metadata instead of reprotecting the space and
// sacrificing the hot mapped page on every miss.
func TestMetadataDominatedPoolUsesClassicClock(t *testing.T) {
	e := newEnv(t)
	s := e.session(64, Config{BulkLoad: true}, true)
	s.Begin()
	cl := s.NewCluster()

	// One hot mapped data page...
	hot, err := s.Alloc(cl, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	// ...and a stream of large objects whose pages flood the pool through
	// the storage-manager path.
	buf := make([]byte, 8192)
	for i := 0; i < 40; i++ {
		ref, err := s.AllocLarge(cl, 4*8192)
		if err != nil {
			t.Fatal(err)
		}
		for pg := 0; pg < 4; pg++ {
			if err := s.LargeWrite(ref, buf, uint64(pg*8192)); err != nil {
				t.Fatal(err)
			}
		}
		// Touch the hot page between batches (the generator's pattern).
		if err := s.Space().WriteU32(hot+8, uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	sc := s.policyOf()
	if sc == nil {
		t.Fatal("simplified clock not installed")
	}
	calls, protAlls, metaVictims, dataVictims := sc.DebugStats()
	if calls == 0 {
		t.Fatal("no evictions happened; shrink the pool")
	}
	if protAlls > calls/4 {
		t.Fatalf("reprotect storm: %d ProtectAlls in %d victim calls", protAlls, calls)
	}
	if metaVictims == 0 {
		t.Fatalf("no metadata victims (calls=%d data=%d)", calls, dataVictims)
	}
}

// TestMappedFramesTrackResidentPages checks the virtual-memory mappings
// against the store's own view, with the default (8 GB) address space and
// a 32-page client pool: after a traversal that evicts and reprotects the
// whole space, after a coherence refresh, and after an abort, a page's
// frame is mapped exactly when its descriptor names a buffer frame that
// still holds the page, and no other frame is mapped. That covers Unmap
// through the eviction hook, the refresh hook and Abort.
func TestMappedFramesTrackResidentPages(t *testing.T) {
	const nodes = 200
	e := newEnv(t)
	buildList(t, e.session(128, Config{BulkLoad: true}, true), nodes, true)
	e.cold()

	s := e.session(32, Config{}, false)
	if s.Space().MaxFrames() != DefaultMaxFrames {
		t.Fatalf("MaxFrames = %d, want the default %d", s.Space().MaxFrames(), DefaultMaxFrames)
	}
	pool := s.Client().Pool()
	// check verifies the mappings and returns the number of pages that are
	// resident but unmapped (refreshed or not yet faulted).
	check := func(when string) (residentUnmapped int) {
		t.Helper()
		mapped := 0
		s.tree.Walk(func(d *PageDesc) bool {
			data, err := s.Space().Mapped(d.Lo)
			if err != nil {
				t.Fatalf("%s: Mapped(%#x): %v", when, d.Lo, err)
			}
			idx, inPool := pool.Lookup(d.Pid)
			resident := d.FrameIdx >= 0 && inPool && idx == d.FrameIdx
			if (data != nil) != resident {
				t.Fatalf("%s: page %d at %#x: mapped %v, FrameIdx %d, in pool %v", when, d.Pid, d.Lo, data != nil, d.FrameIdx, inPool)
			}
			if data != nil {
				mapped++
				if &data[0] != &pool.Frame(idx).Data[0] {
					t.Fatalf("%s: page %d mapped to a buffer frame other than its own", when, d.Pid)
				}
			} else if inPool && d.Accessed {
				residentUnmapped++
			}
			return true
		})
		if got := s.Space().MappedFrames(); got != mapped || got > pool.Len() {
			t.Fatalf("%s: %d frames mapped, %d descriptors mapped, pool of %d", when, got, mapped, pool.Len())
		}
		return residentUnmapped
	}
	walk := func(when string, bump uint32) {
		t.Helper()
		for i, v := range walkList(t, s) {
			want := uint32(i)
			if i >= nodes-10 {
				want += bump
			}
			if v != want {
				t.Fatalf("%s: node %d = %d, want %d", when, i, v, want)
			}
		}
	}

	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	walk("first traversal", 0)
	walk("second traversal", 0)
	if _, protAlls, _, _ := s.policyOf().DebugStats(); protAlls == 0 {
		t.Fatal("the traversal never reprotected the space; shrink the pool")
	}
	check("after traversal")
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	check("after commit")

	// Another session updates the last ten nodes, which s still holds; s's
	// next Begin repairs those frames in place and must unmap them.
	o := e.session(64, Config{}, false)
	if err := o.Begin(); err != nil {
		t.Fatal(err)
	}
	ref, err := o.Root("list")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nodes; i++ {
		if i >= nodes-10 {
			if err := o.Space().WriteU32(ref+8, uint32(i)+1000); err != nil {
				t.Fatal(err)
			}
		}
		next, err := o.Space().ReadU64(ref)
		if err != nil {
			t.Fatal(err)
		}
		ref = Ref(next)
	}
	if err := o.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	if check("after refresh") == 0 {
		t.Fatal("no resident page was refreshed and unmapped")
	}
	walk("traversal after refresh", 1000)
	check("after refreshed traversal")

	// Pages created by a transaction that aborts lose their mappings.
	cl := s.NewCluster()
	for i := 0; i < 5; i++ {
		cl.Break()
		r, err := s.Alloc(cl, 16, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Space().WriteU32(r+8, 7); err != nil {
			t.Fatal(err)
		}
	}
	check("before abort")
	if err := s.Abort(); err != nil {
		t.Fatal(err)
	}
	check("after abort")
}
