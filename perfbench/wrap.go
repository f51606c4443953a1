package main

import (
	"sync/atomic"

	"quickstore/internal/disk"
	"quickstore/internal/esm"
)

// The layer wrappers below each implement one layer's public interface by
// delegating to the real implementation. They always count calls; while
// the tracer is on they also time each call and record a span. They never
// alter a request, a response or an error.

// rpcKind groups protocol ops into the kinds the benchmark reports.
type rpcKind int

const (
	rpcBegin rpcKind = iota
	rpcValidate
	rpcReadPage
	rpcLock
	rpcLog
	rpcCommit
	rpcCheckpoint
	rpcOther
	numRPC
)

var rpcNames = [numRPC]string{"begin", "validate", "read_page", "lock", "log", "commit", "checkpoint", "other"}

// reportedRPCs are the kinds with their own per-layer metrics.
var reportedRPCs = []rpcKind{rpcBegin, rpcValidate, rpcReadPage, rpcLock, rpcLog, rpcCommit}

var (
	rpcSpan    [numRPC]string
	serverSpan [numRPC]string
)

func init() {
	for k, n := range rpcNames {
		rpcSpan[k] = "esm.rpc." + n
		serverSpan[k] = "esm.server." + n
	}
}

func kindOf(op esm.Op) rpcKind {
	switch op {
	case esm.OpBegin:
		return rpcBegin
	case esm.OpValidatePages:
		return rpcValidate
	case esm.OpReadPage, esm.OpReadPages:
		return rpcReadPage
	case esm.OpLock:
		return rpcLock
	case esm.OpLog:
		return rpcLog
	case esm.OpCommit:
		return rpcCommit
	case esm.OpCheckpoint:
		return rpcCheckpoint
	}
	return rpcOther
}

// Volume I/O kinds.
const (
	ioRead = iota
	ioWrite
	ioSync
	numIO
)

var ioSpan = [numIO]string{"disk.read", "disk.write", "disk.sync"}

// counters are the wrappers' running totals. Times are only accumulated
// while tracing.
type counters struct {
	rpcCalls, rpcNs [numRPC]atomic.Int64
	srvCalls, srvNs [numRPC]atomic.Int64
	ioCalls, ioNs   [numIO]atomic.Int64
	walForces       atomic.Int64
	walBytes        atomic.Int64
}

// counts is a plain copy of counters, for before/after deltas.
type counts struct {
	rpcCalls, rpcNs [numRPC]int64
	srvCalls, srvNs [numRPC]int64
	ioCalls, ioNs   [numIO]int64
	walForces       int64
	walBytes        int64
}

func (c *counters) snapshot() counts {
	var s counts
	for k := range s.rpcCalls {
		s.rpcCalls[k] = c.rpcCalls[k].Load()
		s.rpcNs[k] = c.rpcNs[k].Load()
		s.srvCalls[k] = c.srvCalls[k].Load()
		s.srvNs[k] = c.srvNs[k].Load()
	}
	for k := range s.ioCalls {
		s.ioCalls[k] = c.ioCalls[k].Load()
		s.ioNs[k] = c.ioNs[k].Load()
	}
	s.walForces = c.walForces.Load()
	s.walBytes = c.walBytes.Load()
	return s
}

func (s counts) sub(b counts) counts {
	for k := range s.rpcCalls {
		s.rpcCalls[k] -= b.rpcCalls[k]
		s.rpcNs[k] -= b.rpcNs[k]
		s.srvCalls[k] -= b.srvCalls[k]
		s.srvNs[k] -= b.srvNs[k]
	}
	for k := range s.ioCalls {
		s.ioCalls[k] -= b.ioCalls[k]
		s.ioNs[k] -= b.ioNs[k]
	}
	s.walForces -= b.walForces
	s.walBytes -= b.walBytes
	return s
}

// clientTransport wraps one session's esm.Transport. Several wrappers may
// share one connection (oo7-cold opens a session per op on one socket).
type clientTransport struct {
	inner esm.Transport
	ctr   *counters
	st    *sessTrace
}

// Call implements esm.Transport.
func (w *clientTransport) Call(req *esm.Request) (*esm.Response, error) {
	k := kindOf(req.Op)
	w.ctr.rpcCalls[k].Add(1)
	t := w.st.t
	if !t.on.Load() {
		return w.inner.Call(req)
	}
	tx := req.Tx
	id := w.st.open(rpcSpan[k])
	t.rpcStarted(tx, k, inflight{id: id, op: w.st.op})
	start := t.now()
	resp, err := w.inner.Call(req)
	w.ctr.rpcNs[k].Add(t.now() - start)
	t.rpcDone(tx, k, id)
	w.st.close(id)
	return resp, err
}

// Close implements esm.Transport.
func (w *clientTransport) Close() error { return w.inner.Close() }

// handler wraps the server's esm.Handler behind the listener.
type handler struct {
	inner esm.Handler
	ctr   *counters
	t     *tracer
}

// Handle implements esm.Handler.
func (h *handler) Handle(req *esm.Request) *esm.Response {
	k := kindOf(req.Op)
	h.ctr.srvCalls[k].Add(1)
	if !h.t.on.Load() {
		return h.inner.Handle(req)
	}
	id := h.t.nextID.Add(1)
	parent, op := h.t.serverStarted(id, req.Tx, k)
	start := h.t.now()
	resp := h.inner.Handle(req)
	end := h.t.now()
	h.t.serverDone(id)
	h.ctr.srvNs[k].Add(end - start)
	h.t.record(span{id: id, parent: parent, op: op, name: serverSpan[k], start: start, end: end})
	return resp
}

// CurrentServer exposes the wrapped server so esm.Serve still feeds its
// transport counters, as it would without the wrapper.
func (h *handler) CurrentServer() *esm.Server {
	srv, _ := h.inner.(*esm.Server)
	return srv
}

// volume wraps the server's disk.Volume, timing page reads, page writes
// and syncs.
type volume struct {
	disk.Volume
	ctr *counters
	t   *tracer
}

func (v *volume) timed(kind int, f func() error) error {
	v.ctr.ioCalls[kind].Add(1)
	if !v.t.on.Load() {
		return f()
	}
	id := v.t.nextID.Add(1)
	parent, op := v.t.diskParent()
	start := v.t.now()
	err := f()
	end := v.t.now()
	v.ctr.ioNs[kind].Add(end - start)
	v.t.record(span{id: id, parent: parent, op: op, name: ioSpan[kind], start: start, end: end})
	return err
}

// ReadPage implements disk.Volume.
func (v *volume) ReadPage(id disk.PageID, buf []byte) error {
	return v.timed(ioRead, func() error { return v.Volume.ReadPage(id, buf) })
}

// WritePage implements disk.Volume.
func (v *volume) WritePage(id disk.PageID, buf []byte) error {
	return v.timed(ioWrite, func() error { return v.Volume.WritePage(id, buf) })
}

// Sync implements disk.Volume.
func (v *volume) Sync() error {
	return v.timed(ioSync, func() error { return v.Volume.Sync() })
}

// flushHook is a pass-through wal.Log.FlushHook: it lets every pending
// byte persist and counts forces and bytes.
func (c *counters) flushHook(pending int) (int, error) {
	c.walForces.Add(1)
	c.walBytes.Add(int64(pending))
	return pending, nil
}
