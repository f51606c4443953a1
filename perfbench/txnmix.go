package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"quickstore/internal/core"
	"quickstore/internal/disk"
	"quickstore/internal/esm"
	"quickstore/internal/vmem"
)

// txn-mix shape: objects reachable from a root through directory objects,
// two sessions on their own connections, each transaction reading 8
// objects drawn from all of them and incrementing 2 in its own partition.
const (
	txnObjects    = 16384
	txnObjectSize = 64
	txnFanout     = 128 // refs per directory object, and directories in the root
	txnReads      = 8
	txnWrites     = 2
	txnSessions   = 2
	txnCkptEvery  = 4096 // transactions (both sessions) between checkpoints
	txnRootName   = "txnmix"
)

// touch is one object access of a transaction.
type touch struct {
	obj   int
	write bool
}

// txnGen produces one session's transactions from the seed.
type txnGen struct {
	rng *rand.Rand
	own []int // the session's partition
}

func newTxnGen(seed int64, sess int, own []int) *txnGen {
	return &txnGen{rng: rand.New(rand.NewSource(seed*1_000_003 + int64(sess) + 1)), own: own}
}

// next returns a transaction's accesses in ascending object order; an
// object both read and written appears once, as a write.
func (g *txnGen) next() []touch {
	ts := make([]touch, 0, txnReads+txnWrites)
	w1 := g.own[g.rng.Intn(len(g.own))]
	w2 := w1
	for w2 == w1 {
		w2 = g.own[g.rng.Intn(len(g.own))]
	}
	ts = append(ts, touch{w1, true}, touch{w2, true})
	for i := 0; i < txnReads; i++ {
		ts = append(ts, touch{g.rng.Intn(txnObjects), false})
	}
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].obj != ts[j].obj {
			return ts[i].obj < ts[j].obj
		}
		return ts[i].write && !ts[j].write
	})
	out := ts[:1]
	for _, t := range ts[1:] {
		if t.obj != out[len(out)-1].obj {
			out = append(out, t)
		}
	}
	return out
}

// txnBench is the txn-mix workload.
type txnBench struct {
	dir   string
	seed  int64
	ctr   *counters
	t     *tracer
	opSeq *atomic.Uint64

	e     *env
	init  []uint64   // generated initial values
	owner []int      // partition (session) of each object, by page
	own   [][]int    // objects of each partition, ascending
	ss    []*session // the two sessions
	roots []vmem.Addr
	gens  []*txnGen
	acked []atomic.Int64 // acknowledged increments per object

	ambiguous atomic.Bool // a commit failed: its outcome is unknown
	total     atomic.Int64
}

func (b *txnBench) env() *env { return b.e }

func (b *txnBench) setup() (time.Duration, error) {
	e, err := openEnv(b.dir, warmServerPages, b.ctr, b.t)
	if err != nil {
		return 0, err
	}
	b.e = e
	if err := b.generate(); err != nil {
		return 0, fmt.Errorf("generating txn-mix store: %w", err)
	}
	b.acked = make([]atomic.Int64, txnObjects)
	var openDur time.Duration
	for i := 0; i < txnSessions; i++ {
		conn, err := e.dial()
		if err != nil {
			return 0, err
		}
		ss, d, err := openSession(conn, warmClientPages, b.ctr, &sessTrace{t: b.t})
		if err != nil {
			return 0, err
		}
		openDur = d
		b.ss = append(b.ss, ss)
		b.gens = append(b.gens, newTxnGen(b.seed, i, b.own[i]))
		// Warm the session: fault in every page, checking every value.
		if err := ss.begin(); err != nil {
			return 0, err
		}
		root, err := ss.s.Root(txnRootName)
		if err != nil {
			return 0, err
		}
		b.roots = append(b.roots, root)
		for obj := 0; obj < txnObjects; obj++ {
			v, err := readObj(ss.s.Space(), root, obj)
			if err != nil {
				return 0, err
			}
			if v != b.init[obj] {
				return 0, checkError{fmt.Errorf("object %d reads %d after load, want %d", obj, v, b.init[obj])}
			}
		}
		if err := ss.commit(); err != nil {
			return 0, err
		}
	}
	return openDur, nil
}

// objRef follows root -> directory -> object.
func objRef(sp *vmem.Space, root vmem.Addr, obj int) (vmem.Addr, error) {
	dir, err := sp.ReadU64(root + vmem.Addr(8*(obj/txnFanout)))
	if err != nil {
		return 0, err
	}
	ref, err := sp.ReadU64(vmem.Addr(dir) + vmem.Addr(8*(obj%txnFanout)))
	return vmem.Addr(ref), err
}

func readObj(sp *vmem.Space, root vmem.Addr, obj int) (uint64, error) {
	ref, err := objRef(sp, root, obj)
	if err != nil {
		return 0, err
	}
	return sp.ReadU64(ref)
}

// generate bulk-loads the objects, their directories and the root with
// seeded initial values, partitions the objects by page, and checkpoints.
func (b *txnBench) generate() error {
	conn, err := b.e.dial()
	if err != nil {
		return err
	}
	c := esm.NewClient(conn, esm.ClientConfig{BufferPages: warmClientPages})
	s, err := core.New(c, core.Config{BulkLoad: true})
	if err != nil {
		return err
	}
	if err := s.Begin(); err != nil {
		return err
	}
	sp := s.Space()
	refOffs := make([]int, txnFanout)
	for i := range refOffs {
		refOffs[i] = 8 * i
	}
	rng := rand.New(rand.NewSource(b.seed))
	b.init = make([]uint64, txnObjects)
	root, err := s.Alloc(s.NewCluster(), 8*txnFanout, refOffs)
	if err != nil {
		return err
	}
	dirs, objs := s.NewCluster(), s.NewCluster()
	pages := make([]disk.PageID, txnObjects)
	var dir core.Ref
	for obj := 0; obj < txnObjects; obj++ {
		if obj%txnFanout == 0 {
			if dir, err = s.Alloc(dirs, 8*txnFanout, refOffs); err != nil {
				return err
			}
			if err := sp.WriteU64(root+vmem.Addr(8*(obj/txnFanout)), uint64(dir)); err != nil {
				return err
			}
		}
		ref, err := s.Alloc(objs, txnObjectSize, nil)
		if err != nil {
			return err
		}
		b.init[obj] = uint64(rng.Int63n(1 << 40))
		if err := sp.WriteU64(ref, b.init[obj]); err != nil {
			return err
		}
		if err := sp.WriteU64(dir+vmem.Addr(8*(obj%txnFanout)), uint64(ref)); err != nil {
			return err
		}
		if pages[obj], _, err = s.PageOf(ref); err != nil {
			return err
		}
	}
	if err := s.SetRoot(txnRootName, root); err != nil {
		return err
	}
	if err := s.Commit(); err != nil {
		return err
	}
	b.partition(pages)
	return c.Checkpoint()
}

// partition gives each object page to one session, alternating in page
// order, so the two sessions' writes never touch the same page.
func (b *txnBench) partition(pages []disk.PageID) {
	rank := map[disk.PageID]int{}
	for _, p := range pages {
		if _, ok := rank[p]; !ok {
			rank[p] = len(rank)
		}
	}
	b.owner = make([]int, len(pages))
	b.own = make([][]int, txnSessions)
	for obj, p := range pages {
		b.owner[obj] = rank[p] % txnSessions
		b.own[b.owner[obj]] = append(b.own[b.owner[obj]], obj)
	}
}

func (b *txnBench) prepare() error { return nil }

// txn runs one transaction on session i. Values of the session's own
// objects must equal their initial value plus its acknowledged
// increments; values of the other session's objects must lie between
// what was acknowledged before Begin and one unacknowledged increment
// past what is acknowledged after the read.
func (b *txnBench) txn(i int, ts []touch) error {
	ss, root := b.ss[i], b.roots[i]
	sp := ss.s.Space()
	floor := make([]int64, len(ts))
	for k, t := range ts {
		floor[k] = b.acked[t.obj].Load()
	}
	if err := ss.begin(); err != nil {
		return err
	}
	for k, t := range ts {
		ref, err := objRef(sp, root, t.obj)
		if err != nil {
			_ = ss.s.Abort() // the access error is what matters
			return err
		}
		v, err := sp.ReadU64(ref)
		if err != nil {
			_ = ss.s.Abort() // the access error is what matters
			return err
		}
		n := int64(v - b.init[t.obj])
		if b.owner[t.obj] == i {
			if n != floor[k] {
				return checkError{fmt.Errorf("session %d read object %d as +%d, want +%d", i, t.obj, n, floor[k])}
			}
		} else if ceil := b.acked[t.obj].Load() + 1; n < floor[k] || n > ceil {
			return checkError{fmt.Errorf("session %d read object %d as +%d, want +%d..+%d", i, t.obj, n, floor[k], ceil)}
		}
		if t.write {
			if err := sp.WriteU64(ref, v+1); err != nil {
				_ = ss.s.Abort() // the access error is what matters
				return err
			}
		}
	}
	if err := ss.commit(); err != nil {
		b.ambiguous.Store(true)
		return err
	}
	for _, t := range ts {
		if t.write {
			b.acked[t.obj].Add(1)
		}
	}
	return nil
}

func (b *txnBench) run(ph *phase, d time.Duration, minOps int) error {
	var wg sync.WaitGroup
	lats := make([][]float64, txnSessions)
	fails := make([]int, txnSessions)
	ckpts := make([][]float64, txnSessions)
	errs := make([]error, txnSessions)
	for i := 0; i < txnSessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ss := b.ss[i]
			for time.Since(ph.start) < d {
				ts := b.gens[i].next()
				ss.st.op = b.opSeq.Add(1)
				id := ss.st.open(spanOp)
				t0 := time.Now()
				err := b.txn(i, ts)
				t1 := time.Now()
				ss.st.close(id)
				switch {
				case isCheck(err):
					errs[i] = err
					return
				case err != nil:
					fails[i]++
				default:
					lats[i] = append(lats[i], float64(t1.Sub(t0))/1e6)
				}
				if b.total.Add(1)%txnCkptEvery == 0 {
					cd, err := ss.checkpoint()
					if err != nil {
						errs[i] = err
						return
					}
					ckpts[i] = append(ckpts[i], float64(cd)/1e6)
				}
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < txnSessions; i++ {
		if errs[i] != nil {
			return errs[i]
		}
		ph.lat = append(ph.lat, lats[i]...)
		ph.failed += fails[i]
		ph.ckptMs = append(ph.ckptMs, ckpts[i]...)
	}
	if len(ph.lat) < minOps {
		return fmt.Errorf("txn-mix completed %d transactions, need %d", len(ph.lat), minOps)
	}
	return nil
}

func (b *txnBench) client() clientCounts {
	var c clientCounts
	for _, ss := range b.ss {
		c = c.add(ss.counts())
	}
	return c
}

// verify is the txn-mix crash check: after a crash and restart recovery,
// every object must hold its initial value plus its acknowledged
// increments.
func (b *txnBench) verify() error {
	if b.ambiguous.Load() {
		return checkError{fmt.Errorf("a commit failed; its outcome is unknown")}
	}
	srv, closeFn, err := b.e.crash()
	if err != nil {
		return checkError{fmt.Errorf("crash and recover: %w", err)}
	}
	defer closeFn()
	c := esm.NewClient(esm.NewInProcTransport(srv), esm.ClientConfig{BufferPages: warmClientPages})
	s, err := core.Open(c, core.Config{})
	if err != nil {
		return checkError{err}
	}
	if err := s.Begin(); err != nil {
		return checkError{err}
	}
	root, err := s.Root(txnRootName)
	if err != nil {
		return checkError{err}
	}
	for obj := 0; obj < txnObjects; obj++ {
		v, err := readObj(s.Space(), root, obj)
		if err != nil {
			return checkError{fmt.Errorf("reading object %d: %w", obj, err)}
		}
		if want := b.init[obj] + uint64(b.acked[obj].Load()); v != want {
			return checkError{fmt.Errorf("object %d recovered as +%d, want +%d", obj, v-b.init[obj], want-b.init[obj])}
		}
	}
	return s.Commit()
}

func (b *txnBench) close() error {
	if b.e == nil {
		return nil
	}
	return b.e.close()
}
