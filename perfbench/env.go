package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"time"

	"quickstore/internal/core"
	"quickstore/internal/disk"
	"quickstore/internal/esm"
	"quickstore/internal/sim"
	"quickstore/internal/wal"
)

// env is one page server on a file volume and a file log, served over a
// loopback listener, with the benchmark's wrappers around its volume, log
// and handler.
type env struct {
	dir   string
	cfg   esm.ServerConfig
	fvol  *disk.FileVolume
	log   *wal.Log
	srv   *esm.Server
	ln    net.Listener
	done  chan struct{}
	conns []*esm.MuxTransport
}

// openEnv creates a fresh database in dir. The flush policy is the server
// default: CommitWindow 0, so every commit forces the log with an fsync.
func openEnv(dir string, serverPages int, ctr *counters, t *tracer) (*env, error) {
	e := &env{dir: dir, cfg: esm.ServerConfig{BufferPages: serverPages}}
	var err error
	if e.fvol, err = disk.CreateFileVolume(filepath.Join(dir, "db.vol")); err != nil {
		return nil, err
	}
	if e.log, err = wal.CreateFileLog(filepath.Join(dir, "db.log")); err != nil {
		e.fvol.Close()
		return nil, err
	}
	e.log.FlushHook = ctr.flushHook
	if e.srv, err = esm.NewServer(&volume{Volume: e.fvol, ctr: ctr, t: t}, e.log, e.cfg); err != nil {
		e.log.Close()
		e.fvol.Close()
		return nil, err
	}
	if e.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		e.log.Close()
		e.fvol.Close()
		return nil, err
	}
	e.done = make(chan struct{})
	go func() {
		defer close(e.done)
		esm.Serve(e.ln, &handler{inner: e.srv, ctr: ctr, t: t})
	}()
	return e, nil
}

// dial opens a new multiplexed connection to the server.
func (e *env) dial() (*esm.MuxTransport, error) {
	c, err := esm.DialTCP(e.ln.Addr().String())
	if err != nil {
		return nil, err
	}
	e.conns = append(e.conns, c)
	return c, nil
}

// stop closes every connection and the listener and waits for the accept
// loop to end.
func (e *env) stop() {
	for _, c := range e.conns {
		c.Close()
	}
	e.conns = nil
	if e.ln != nil {
		e.ln.Close()
		<-e.done
		e.ln = nil
	}
}

// close shuts the server down cleanly.
func (e *env) close() error {
	e.stop()
	return errors.Join(e.log.Close(), e.fvol.Close())
}

// crash kills the server the way a process death would: the volume is
// abandoned without a header write or a checkpoint and the log is dropped
// with whatever it had not forced. It then reopens both with
// esm.OpenServer, which runs restart recovery, and returns the recovered
// server. The caller closes it with the returned function.
func (e *env) crash() (*esm.Server, func() error, error) {
	e.stop()
	if err := e.fvol.Abandon(); err != nil {
		return nil, nil, err
	}
	e.log.DiscardUnflushed()
	if err := e.log.Close(); err != nil {
		return nil, nil, err
	}
	vol, err := disk.OpenFileVolume(filepath.Join(e.dir, "db.vol"))
	if err != nil {
		return nil, nil, err
	}
	log, err := wal.OpenFileLog(filepath.Join(e.dir, "db.log"))
	if err != nil {
		vol.Close()
		return nil, nil, err
	}
	srv, err := esm.OpenServer(vol, log, e.cfg)
	if err != nil {
		log.Close()
		vol.Close()
		return nil, nil, fmt.Errorf("restart recovery: %w", err)
	}
	return srv, func() error { return errors.Join(log.Close(), vol.Close()) }, nil
}

// stats reads the server's counters straight from the server, so the
// read itself is not counted by the wrappers.
func (e *env) stats() (esm.ServerStats, error) {
	var st esm.ServerStats
	resp := e.srv.Handle(&esm.Request{Op: esm.OpStats})
	if resp.Err != "" {
		return st, errors.New(resp.Err)
	}
	return st, json.Unmarshal(resp.Data, &st)
}

// session is one client session: core.Store over esm.Client over a
// wrapped transport.
type session struct {
	st    *sessTrace
	c     *esm.Client
	s     *core.Store
	clock *sim.Clock
}

// openSession builds a session over conn, recording into st. Construction
// (esm.NewClient's pool, core.Open's virtual address space and catalog
// lookups) is timed as core.open.
func openSession(conn esm.Transport, clientPages int, ctr *counters, st *sessTrace) (*session, time.Duration, error) {
	id := st.open(spanOpen)
	start := time.Now()
	clock := sim.NewClock(sim.DefaultCostModel())
	c := esm.NewClient(&clientTransport{inner: conn, ctr: ctr, st: st},
		esm.ClientConfig{BufferPages: clientPages, Clock: clock})
	s, err := core.Open(c, core.Config{})
	d := time.Since(start)
	st.close(id)
	if err != nil {
		return nil, d, err
	}
	return &session{st: st, c: c, s: s, clock: clock}, d, nil
}

// begin and commit call core.Store.Begin and Commit inside their spans.
func (ss *session) begin() error {
	id := ss.st.open(spanBegin)
	err := ss.s.Begin()
	ss.st.close(id)
	return err
}

func (ss *session) commit() error {
	id := ss.st.open(spanCommit)
	err := ss.s.Commit()
	ss.st.close(id)
	return err
}

// checkpoint asks the server for a checkpoint through esm.Client, outside
// any op, as its own span.
func (ss *session) checkpoint() (time.Duration, error) {
	prev := ss.st.op
	ss.st.op = 0
	id := ss.st.open(spanCheckpoint)
	start := time.Now()
	err := ss.c.Checkpoint()
	d := time.Since(start)
	ss.st.close(id)
	ss.st.op = prev
	return d, err
}
