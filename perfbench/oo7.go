package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"quickstore/internal/core"
	"quickstore/internal/esm"
	"quickstore/internal/oo7"
)

// Pool sizes, in 8K pages. The small OO7 database is about 722 pages.
const (
	warmClientPages = esm.DefaultClientBufferPages // 1536: the database fits
	warmServerPages = 3 * warmClientPages          // 4608: the database fits
	coldClientPages = 192                          // about a quarter of the database
	coldServerPages = 384                          // about half of the database
	updateCkptEvery = 16                           // oo7-update ops between checkpoints
)

// oo7Bench runs OO7 traversals on the small database: a warm session
// repeating T1 (hot) or T2B (update), or a fresh session per T1 on one
// shared connection (cold).
type oo7Bench struct {
	kind  string // "hot", "cold" or "update"
	dir   string
	seed  int64
	ctr   *counters
	t     *tracer
	opSeq *atomic.Uint64

	p    oo7.Params
	e    *env
	conn esm.Transport // the shared connection (cold)
	ss   *session      // the warm session (hot, update)
	db   *tracedDB

	cold      clientCounts // counts of cold sessions already discarded
	acked     int          // T2B ops whose commit was acknowledged
	ambiguous bool         // a T2B failed after its commit was sent
	before    map[int32]partState
}

// expectedVisits is the atomic-part count T1 and T2B must return: every
// composite part of every base assembly is traversed in full.
func expectedVisits(p oo7.Params) int {
	return p.NumBaseAssemblies() * p.NumCompPerAssm * p.NumAtomicPerComp
}

// tracedDB is the OO7 database interface with its Begin and Commit going
// through the session's core-layer spans.
type tracedDB struct {
	oo7.DB
	ss         *session
	commitSent bool
}

func (d *tracedDB) Begin() error {
	d.commitSent = false
	return d.ss.begin()
}

func (d *tracedDB) Commit() error {
	d.commitSent = true
	return d.ss.commit()
}

func newTracedDB(ss *session) *tracedDB {
	return &tracedDB{DB: oo7.NewQS(ss.s, false), ss: ss}
}

func (b *oo7Bench) env() *env { return b.e }

func (b *oo7Bench) setup() (time.Duration, error) {
	b.p = oo7.Small()
	b.p.Seed = b.seed
	serverPages, clientPages := warmServerPages, warmClientPages
	if b.kind == "cold" {
		serverPages, clientPages = coldServerPages, coldClientPages
	}
	e, err := openEnv(b.dir, serverPages, b.ctr, b.t)
	if err != nil {
		return 0, err
	}
	b.e = e
	if err := generateOO7(e, b.p); err != nil {
		return 0, fmt.Errorf("generating OO7: %w", err)
	}
	conn, err := e.dial()
	if err != nil {
		return 0, err
	}
	if b.kind == "cold" {
		// Warm-up is one cold op: it proves the path before timing.
		b.conn = conn
		return b.coldSession(0)
	}
	ss, openDur, err := openSession(conn, clientPages, b.ctr, &sessTrace{t: b.t})
	if err != nil {
		return 0, err
	}
	b.ss, b.db = ss, newTracedDB(ss)
	if err := b.traverse(); err != nil {
		return 0, err
	}
	return openDur, nil
}

// generateOO7 bulk-loads the database over its own connection and
// checkpoints it.
func generateOO7(e *env, p oo7.Params) error {
	conn, err := e.dial()
	if err != nil {
		return err
	}
	c := esm.NewClient(conn, esm.ClientConfig{BufferPages: warmClientPages})
	s, err := core.New(c, core.Config{BulkLoad: true})
	if err != nil {
		return err
	}
	if err := oo7.Generate(oo7.NewQS(s, false), p); err != nil {
		return err
	}
	return c.Checkpoint()
}

// traverse runs one T1 (hot, cold) or T2B (update) on the warm session
// and checks its count.
func (b *oo7Bench) traverse() error {
	var n int
	var err error
	if b.kind == "update" {
		n, err = oo7.T2(b.db, oo7.VariantB)
		if err != nil {
			if b.db.commitSent {
				b.ambiguous = true
			}
			return err
		}
		b.acked++
	} else {
		n, err = oo7.T1(b.db)
		if err != nil {
			return err
		}
	}
	if want := expectedVisits(b.p); n != want {
		return checkError{fmt.Errorf("%s returned %d, want %d", b.opName(), n, want)}
	}
	return nil
}

func (b *oo7Bench) opName() string {
	if b.kind == "update" {
		return "T2B"
	}
	return "T1"
}

// coldSession is one oo7-cold op: a fresh session on the shared
// connection, constructed and run through T1 to completion.
func (b *oo7Bench) coldSession(opID uint64) (time.Duration, error) {
	st := &sessTrace{t: b.t, op: opID}
	id := st.open(spanOp)
	defer st.close(id)
	ss, openDur, err := openSession(b.conn, coldClientPages, b.ctr, st)
	if err != nil {
		return openDur, err
	}
	db := newTracedDB(ss)
	n, err := oo7.T1(db)
	b.cold = b.cold.add(ss.counts())
	if err != nil {
		return openDur, err
	}
	if want := expectedVisits(b.p); n != want {
		return openDur, checkError{fmt.Errorf("T1 returned %d, want %d", n, want)}
	}
	return openDur, nil
}

func (b *oo7Bench) prepare() error {
	if b.kind != "update" {
		return nil
	}
	var err error
	b.before, err = survey(b.db)
	b.acked = 0 // the survey saw the set-up T2B
	return err
}

func (b *oo7Bench) run(ph *phase, d time.Duration, minOps int) error {
	if b.kind == "cold" {
		return serialLoop(ph, d, minOps, func() error {
			od, err := b.coldSession(b.opSeq.Add(1))
			ph.openMs = append(ph.openMs, float64(od)/1e6)
			return err
		}, 0, nil)
	}
	op := func() error {
		b.ss.st.op = b.opSeq.Add(1)
		id := b.ss.st.open(spanOp)
		err := b.traverse()
		b.ss.st.close(id)
		return err
	}
	if b.kind == "update" {
		return serialLoop(ph, d, minOps, op, updateCkptEvery, b.ss.checkpoint)
	}
	return serialLoop(ph, d, minOps, op, 0, nil)
}

func (b *oo7Bench) client() clientCounts {
	if b.ss == nil {
		return b.cold
	}
	return b.ss.counts()
}

// verify is the oo7-update crash check: after a crash and restart
// recovery, every atomic part's (x, y) must have moved by exactly the
// acknowledged T2B ops times the number of times one traversal visits it.
func (b *oo7Bench) verify() error {
	if b.kind != "update" {
		return nil
	}
	if b.ambiguous {
		return checkError{fmt.Errorf("a T2B failed after sending its commit; the acknowledged count is unknown")}
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
	after, err := survey(oo7.NewQS(s, false))
	if err != nil {
		return checkError{fmt.Errorf("reading recovered database: %w", err)}
	}
	if len(after) != len(b.before) {
		return checkError{fmt.Errorf("recovered %d atomic parts, want %d", len(after), len(b.before))}
	}
	for id, was := range b.before {
		got, want := after[id], was.moved(b.acked)
		if got != want {
			return checkError{fmt.Errorf("atomic part %d recovered as %+v, want %+v after %d acknowledged T2B", id, got, want, b.acked)}
		}
	}
	return nil
}

func (b *oo7Bench) close() error {
	if b.e == nil {
		return nil
	}
	return b.e.close()
}

// partState is one atomic part's updated attributes and how many times
// one T1/T2B traversal visits it.
type partState struct {
	x, y   int32
	visits int
}

// moved is the state after n T2B ops, each of which increments x and y
// once per visit.
func (s partState) moved(n int) partState {
	d := int32(n * s.visits)
	return partState{x: s.x + d, y: s.y + d, visits: s.visits}
}

// survey reads every atomic part's (x, y) in one read-only transaction,
// walking the design hierarchy exactly as T1 and T2B do.
func survey(db oo7.DB) (map[int32]partState, error) {
	if err := db.Begin(); err != nil {
		return nil, err
	}
	parts := map[int32]partState{}
	graph := func(comp oo7.Ref) {
		seen := map[int32]bool{}
		var dfs func(p oo7.Ref)
		dfs = func(p oo7.Ref) {
			id := db.GetI32(p, oo7.TAtomicPart, oo7.APartID)
			if seen[id] {
				return
			}
			seen[id] = true
			ps := parts[id]
			ps.x = db.GetI32(p, oo7.TAtomicPart, oo7.APartX)
			ps.y = db.GetI32(p, oo7.TAtomicPart, oo7.APartY)
			ps.visits++
			parts[id] = ps
			for _, f := range [3]int{oo7.APartConn0, oo7.APartConn1, oo7.APartConn2} {
				if conn := db.GetRef(p, oo7.TAtomicPart, f); conn != oo7.NilRef {
					dfs(db.GetRef(conn, oo7.TConnection, oo7.ConnTo))
				}
			}
		}
		if root := db.GetRef(comp, oo7.TCompositePart, oo7.CompRootPart); root != oo7.NilRef {
			dfs(root)
		}
	}
	base := func(asm oo7.Ref) {
		for _, f := range [3]int{oo7.BAsmComp0, oo7.BAsmComp1, oo7.BAsmComp2} {
			if comp := db.GetRef(asm, oo7.TBaseAssembly, f); comp != oo7.NilRef {
				graph(comp)
			}
		}
	}
	var walk func(asm oo7.Ref)
	walk = func(asm oo7.Ref) {
		if db.GetI32(asm, oo7.TComplexAssembly, oo7.CAsmLevel) < 0 {
			base(asm)
			return
		}
		for _, f := range [3]int{oo7.CAsmSub0, oo7.CAsmSub1, oo7.CAsmSub2} {
			if sub := db.GetRef(asm, oo7.TComplexAssembly, f); sub != oo7.NilRef {
				walk(sub)
			}
		}
	}
	walk(db.GetRef(db.Root("module"), oo7.TModule, oo7.ModRoot))
	if err := db.Err(); err != nil {
		_ = db.Abort() // the read error is what matters
		return nil, err
	}
	return parts, db.Commit()
}
