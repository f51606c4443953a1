package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Times are nanoseconds since
// the tracer's epoch. op is the id of the benchmark op that caused the
// call (0 for set-up and checkpoint work outside any op); parent is the
// causing span (0 when the call could not be joined to one).
type span struct {
	id, parent, op uint64
	name           string
	start, end     int64
}

// tracer keeps spans in memory while a traced phase runs. When it is off,
// every recording entry point returns after one atomic load.
type tracer struct {
	epoch  time.Time
	on     atomic.Bool
	nextID atomic.Uint64

	mu    sync.Mutex
	spans []span
	// Client calls in flight, for joining server spans to them: by
	// request Tx where the request carries one, else by call kind.
	byTx   map[uint64]inflight
	byKind map[rpcKind][]inflight
	// Server spans running now, for joining disk spans to them.
	serving map[uint64]uint64 // span id -> op id
}

// inflight is an open client rpc span.
type inflight struct{ id, op uint64 }

func newTracer() *tracer {
	return &tracer{
		epoch:   time.Now(),
		byTx:    map[uint64]inflight{},
		byKind:  map[rpcKind][]inflight{},
		serving: map[uint64]uint64{},
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take returns the recorded spans and clears the buffer.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans
	t.spans = nil
	return s
}

// rpcStarted registers an in-flight client call so the server span it
// causes can find its parent.
func (t *tracer) rpcStarted(tx uint64, k rpcKind, f inflight) {
	t.mu.Lock()
	if tx != 0 {
		t.byTx[tx] = f
	} else {
		t.byKind[k] = append(t.byKind[k], f)
	}
	t.mu.Unlock()
}

func (t *tracer) rpcDone(tx uint64, k rpcKind, id uint64) {
	t.mu.Lock()
	if tx != 0 {
		delete(t.byTx, tx)
	} else {
		l := t.byKind[k]
		for i := range l {
			if l[i].id == id {
				l[i] = l[len(l)-1]
				t.byKind[k] = l[:len(l)-1]
				break
			}
		}
	}
	t.mu.Unlock()
}

// serverStarted joins a server span to the client call that caused it:
// through the request's Tx where set, else through the only in-flight
// call of the same kind. Ambiguous calls stay unjoined (parent 0).
func (t *tracer) serverStarted(id, tx uint64, k rpcKind) (parent, op uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if f, ok := t.byTx[tx]; ok && tx != 0 {
		parent, op = f.id, f.op
	} else if l := t.byKind[k]; tx == 0 && len(l) == 1 {
		parent, op = l[0].id, l[0].op
	}
	t.serving[id] = op
	return parent, op
}

func (t *tracer) serverDone(id uint64) {
	t.mu.Lock()
	delete(t.serving, id)
	t.mu.Unlock()
}

// diskParent joins a disk span to the server span running now when there
// is exactly one; otherwise the I/O stays unjoined.
func (t *tracer) diskParent() (parent, op uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.serving) == 1 {
		for id, op := range t.serving {
			return id, op
		}
	}
	return 0, 0
}

// sessTrace is one session's stack of open client-side spans. A session
// runs on one goroutine, so the stack needs no lock.
type sessTrace struct {
	t     *tracer
	op    uint64
	stack []openSpan
}

type openSpan struct {
	id, parent uint64
	name       string
	start      int64
}

// open starts a span as a child of the innermost open one and returns its
// id (0 when tracing is off).
func (s *sessTrace) open(name string) uint64 {
	if !s.t.on.Load() {
		return 0
	}
	o := openSpan{id: s.t.nextID.Add(1), name: name, start: s.t.now()}
	if n := len(s.stack); n > 0 {
		o.parent = s.stack[n-1].id
	}
	s.stack = append(s.stack, o)
	return o.id
}

// close ends the span open returned; id 0 is a no-op.
func (s *sessTrace) close(id uint64) {
	if id == 0 {
		return
	}
	n := len(s.stack) - 1
	o := s.stack[n]
	s.stack = s.stack[:n]
	s.t.record(span{id: o.id, parent: o.parent, op: s.op, name: o.name, start: o.start, end: s.t.now()})
}

// selfTimes returns each span's duration minus the part of its interval
// that its direct children cover. Children may overlap one another or
// stick out of the parent; only the union of their intervals clipped to
// the parent is subtracted, so nothing is counted twice.
func selfTimes(spans []span) map[uint64]int64 {
	kids := map[uint64][][2]int64{}
	for _, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], [2]int64{s.start, s.end})
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		self[s.id] = (s.end - s.start) - covered(s.start, s.end, kids[s.id])
	}
	return self
}

// covered is the length of [lo, hi) covered by the union of ivs.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := iv[0], iv[1]
		if a < cur {
			a = cur
		}
		if b > hi {
			b = hi
		}
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// traceLayers names the layers self time is reported for, in print order.
var traceLayers = []string{"workload", "core", "esm_wire", "esm_server", "disk", "checkpoint"}

// layerOf maps a span name to its layer.
func layerOf(name string) string {
	switch {
	case name == spanOp:
		return "workload"
	case strings.HasPrefix(name, "core."):
		return "core"
	case strings.HasPrefix(name, "esm.rpc."):
		return "esm_wire"
	case strings.HasPrefix(name, "esm.server."):
		return "esm_server"
	case strings.HasPrefix(name, "disk."):
		return "disk"
	case name == spanCheckpoint:
		return "checkpoint"
	}
	return "other"
}

// Span names recorded by the benchmark's own code.
const (
	spanOp         = "op"
	spanOpen       = "core.open"
	spanBegin      = "core.begin"
	spanCommit     = "core.commit"
	spanCheckpoint = "checkpoint"
)

// writeSpans writes spans as tab-separated rows to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\top\tname\tstart_ns\tend_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.id, s.parent, s.op, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
