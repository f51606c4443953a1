package main

import (
	"errors"
	"testing"

	"quickstore/internal/disk"
	"quickstore/internal/esm"
)

// fakeTransport records what it was called with and returns canned
// results.
type fakeTransport struct {
	got  *esm.Request
	resp *esm.Response
	err  error
}

func (f *fakeTransport) Call(req *esm.Request) (*esm.Response, error) {
	f.got = req
	return f.resp, f.err
}

func (f *fakeTransport) Close() error { return f.err }

func TestClientTransportPassesThrough(t *testing.T) {
	for _, traced := range []bool{false, true} {
		boom := errors.New("boom")
		for _, c := range []struct {
			resp *esm.Response
			err  error
		}{{&esm.Response{N: 7, Data: []byte{1, 2}}, nil}, {&esm.Response{Err: "remote"}, nil}, {nil, boom}} {
			tr := newTracer()
			tr.on.Store(traced)
			inner := &fakeTransport{resp: c.resp, err: c.err}
			ctr := &counters{}
			w := &clientTransport{inner: inner, ctr: ctr, st: &sessTrace{t: tr}}
			req := &esm.Request{Op: esm.OpLock, Tx: 9, Page: 3, Mode: 1, Data: []byte{5}}
			want := *req
			resp, err := w.Call(req)
			if inner.got != req || req.Op != want.Op || req.Tx != want.Tx || req.Page != want.Page || req.Mode != want.Mode || &req.Data[0] != &want.Data[0] {
				t.Errorf("traced=%v: request altered or not forwarded", traced)
			}
			if resp != c.resp || err != c.err {
				t.Errorf("traced=%v: got (%v, %v), want (%v, %v)", traced, resp, err, c.resp, c.err)
			}
			if ctr.rpcCalls[rpcLock].Load() != 1 {
				t.Errorf("traced=%v: lock call not counted", traced)
			}
			if n := len(tr.take()); (n == 1) != traced {
				t.Errorf("traced=%v: recorded %d spans", traced, n)
			}
		}
	}
}

type fakeHandler struct {
	got  *esm.Request
	resp *esm.Response
}

func (f *fakeHandler) Handle(req *esm.Request) *esm.Response { f.got = req; return f.resp }

func TestHandlerPassesThroughAndJoins(t *testing.T) {
	tr := newTracer()
	tr.on.Store(true)
	inner := &fakeHandler{resp: &esm.Response{Err: "nope"}}
	h := &handler{inner: inner, ctr: &counters{}, t: tr}
	st := &sessTrace{t: tr, op: 42}
	client := &clientTransport{inner: transportFunc(func(req *esm.Request) (*esm.Response, error) {
		return h.Handle(req), nil
	}), ctr: &counters{}, st: st}
	req := &esm.Request{Op: esm.OpCommit, Tx: 5}
	resp, err := client.Call(req)
	if err != nil || resp != inner.resp || inner.got != req {
		t.Fatalf("handler altered the exchange: %v %v", resp, err)
	}
	spans := tr.take()
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(spans))
	}
	srv, rpc := spans[0], spans[1]
	if srv.name != "esm.server.commit" || rpc.name != "esm.rpc.commit" || srv.parent != rpc.id || srv.op != 42 || rpc.op != 42 {
		t.Errorf("server span %+v not joined to client span %+v", srv, rpc)
	}
	if h.CurrentServer() != nil {
		t.Error("CurrentServer of a non-server handler must be nil")
	}
}

type transportFunc func(*esm.Request) (*esm.Response, error)

func (f transportFunc) Call(req *esm.Request) (*esm.Response, error) { return f(req) }
func (f transportFunc) Close() error                                 { return nil }

func TestVolumePassesThrough(t *testing.T) {
	for _, traced := range []bool{false, true} {
		tr := newTracer()
		tr.on.Store(traced)
		ctr := &counters{}
		mem := disk.NewMemVolume()
		v := &volume{Volume: mem, ctr: ctr, t: tr}
		pid, err := v.Allocate(1)
		if err != nil {
			t.Fatal(err)
		}
		page := make([]byte, disk.PageSize)
		page[100] = 7
		if err := v.WritePage(pid, page); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, disk.PageSize)
		if err := v.ReadPage(pid, got); err != nil || got[100] != 7 {
			t.Fatalf("read back %d, %v", got[100], err)
		}
		errWant := mem.ReadPage(pid+1000, got)
		if err := v.ReadPage(pid+1000, got); err == nil || err.Error() != errWant.Error() {
			t.Errorf("error changed: %v, want %v", err, errWant)
		}
		if err := v.Sync(); err != nil {
			t.Fatal(err)
		}
		if ctr.ioCalls[ioRead].Load() != 2 || ctr.ioCalls[ioWrite].Load() != 1 || ctr.ioCalls[ioSync].Load() != 1 {
			t.Errorf("counts %d/%d/%d", ctr.ioCalls[ioRead].Load(), ctr.ioCalls[ioWrite].Load(), ctr.ioCalls[ioSync].Load())
		}
		if n := len(tr.take()); (n == 4) != traced {
			t.Errorf("traced=%v: recorded %d spans", traced, n)
		}
	}
}

func TestFlushHookPassesThrough(t *testing.T) {
	ctr := &counters{}
	for _, n := range []int{0, 1, 4096} {
		if allow, err := ctr.flushHook(n); allow != n || err != nil {
			t.Errorf("flushHook(%d) = %d, %v", n, allow, err)
		}
	}
	if ctr.walForces.Load() != 3 || ctr.walBytes.Load() != 4097 {
		t.Errorf("counted %d forces, %d bytes", ctr.walForces.Load(), ctr.walBytes.Load())
	}
}
