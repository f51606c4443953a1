package harness

import (
	"sync/atomic"
	"testing"

	"quickstore/internal/disk"
	"quickstore/internal/esm"
	"quickstore/internal/wal"
)

// The inter-transaction cache-coherence fixture (DESIGN.md §18): one
// reader session keeps its buffer warm across transactions while a writer
// session keeps mutating a slice of the shared database. The coherent run
// revalidates the warm cache with LSN tokens at every Begin (not-modified
// answers and delta repairs); the baseline models the only correct
// alternative without coherence — dropping the cache and refetching every
// page in full each round. Both runs count bytes; nothing is timed.
const (
	warmObjects       = 128              // shared objects
	warmObjectSize    = 1024             // payload bytes per object
	warmRounds        = 20               // measured writer/reader rounds
	warmDirtyPerRound = warmObjects / 10 // objects the writer updates each round
)

// warmCachePoint is one measured mode of the sharing fixture.
type warmCachePoint struct {
	Mode        string // "coherent" or "refetch"
	Bytes       int64  // reader traffic over the measured rounds
	StaleReads  int64  // values that disagreed with the oracle; must be 0
	Validates   int64  // OpValidatePages batches served
	NotModified int64
	Deltas      int64
	Fulls       int64
}

// meteredTransport counts the framed wire size of every request and
// response passing through it, so the fixture reports what a real network
// would carry rather than in-process pointer passing.
type meteredTransport struct {
	tr    esm.Transport
	bytes atomic.Int64
}

func (m *meteredTransport) Call(req *esm.Request) (*esm.Response, error) {
	n := int64(esm.RequestWireSize(req))
	resp, err := m.tr.Call(req)
	if resp != nil {
		n += int64(esm.ResponseWireSize(resp))
	}
	m.bytes.Add(n)
	return resp, err
}

func (m *meteredTransport) Close() error { return m.tr.Close() }

// runWarmCacheMode runs one seeded server with a writer session and one
// metered reader session for warmRounds rounds and returns the reader's
// wire traffic plus the server's coherence counters.
func runWarmCacheMode(t *testing.T, coherent bool) warmCachePoint {
	t.Helper()
	pt := warmCachePoint{Mode: "refetch"}
	if coherent {
		pt.Mode = "coherent"
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s run: %v", pt.Mode, err)
		}
	}
	srv, err := esm.NewServer(disk.NewMemVolume(), wal.NewMemLog(), esm.ServerConfig{BufferPages: 512})
	must(err)

	// Seed the shared database and the oracle of committed values.
	seed := esm.NewClient(esm.NewInProcTransport(srv), esm.ClientConfig{BufferPages: 64})
	must(seed.Begin())
	fid, err := seed.CreateFile("warmcache")
	must(err)
	cl := seed.NewCluster(fid)
	oids := make([]esm.OID, warmObjects)
	oracle := make([]uint64, warmObjects)
	for i := range oids {
		id, data, err := seed.CreateObject(cl, warmObjectSize)
		must(err)
		oracle[i] = uint64(i)
		putValue(data, oracle[i])
		oids[i] = id
	}
	must(seed.Commit())

	// The writer is deliberately non-coherent: commits bump the server's
	// version table regardless, and this keeps the Coh* counters below
	// attributable to the reader alone.
	writer := esm.NewClient(esm.NewInProcTransport(srv), esm.ClientConfig{BufferPages: 64, NoCoherence: true})
	meter := &meteredTransport{tr: esm.NewInProcTransport(srv)}
	reader := esm.NewClient(meter, esm.ClientConfig{BufferPages: 256, NoCoherence: !coherent})

	readAll := func() int64 {
		var stale int64
		must(reader.Begin())
		for i, oid := range oids {
			data, _, _, err := reader.ReadObjectAt(oid)
			must(err)
			if v, ok := getValue(data); !ok || v != oracle[i] {
				stale++
			}
		}
		must(reader.Commit())
		return stale
	}

	// Warm-up round: the initial full fetch is identical in both modes
	// and is not what the fixture compares, so it runs unmetered.
	readAll()
	before, err := writer.ServerStats()
	must(err)
	meter.bytes.Store(0)

	for r := 1; r <= warmRounds; r++ {
		must(writer.Begin())
		for k := 0; k < warmDirtyPerRound; k++ {
			i := (r*warmDirtyPerRound + k) % warmObjects
			data, off, frame, err := writer.ReadObjectAt(oids[i])
			must(err)
			old := append([]byte(nil), data[:12]...)
			oracle[i] = uint64(r)<<32 | uint64(i)
			putValue(data, oracle[i])
			writer.Pool().MarkDirty(frame)
			writer.LogUpdate(oids[i].Page, off, old, append([]byte(nil), data[:12]...))
		}
		must(writer.Commit())
		if !coherent {
			// Without coherence a warm cache cannot be trusted: the only
			// correct move is to drop it and refetch everything.
			reader.Pool().DropAll()
		}
		pt.StaleReads += readAll()
	}

	pt.Bytes = meter.bytes.Load()
	after, err := writer.ServerStats()
	must(err)
	pt.Validates = after.CohValidates - before.CohValidates
	pt.NotModified = after.CohNotModified - before.CohNotModified
	pt.Deltas = after.CohDeltas - before.CohDeltas
	pt.Fulls = after.CohFulls - before.CohFulls
	return pt
}

// TestWarmCacheBench measures the coherent warm cache against the
// drop-and-refetch baseline on identical workloads and holds the
// acceptance floor: neither mode ever reads a stale value, the coherent
// reader revalidates once per round, and it ships at least 5x fewer bytes.
func TestWarmCacheBench(t *testing.T) {
	coh := runWarmCacheMode(t, true)
	base := runWarmCacheMode(t, false)
	for _, p := range []warmCachePoint{coh, base} {
		if p.StaleReads != 0 {
			t.Errorf("%s mode observed %d stale reads", p.Mode, p.StaleReads)
		}
		if p.Bytes <= 0 {
			t.Errorf("%s mode metered %d bytes", p.Mode, p.Bytes)
		}
	}
	if coh.Validates != warmRounds {
		t.Errorf("coherent run served %d validate batches, want %d", coh.Validates, warmRounds)
	}
	if coh.Deltas+coh.Fulls == 0 {
		t.Error("coherent run repaired nothing; the writer's updates never reached the reader")
	}
	if base.Validates != 0 || base.Deltas != 0 || base.Fulls != 0 {
		t.Errorf("refetch baseline shows coherence traffic: %+v", base)
	}
	reduction := ratio(float64(base.Bytes), float64(coh.Bytes))
	if reduction < 5 {
		t.Errorf("coherent mode byte reduction %.2fx is below the 5x floor", reduction)
	}
	t.Logf("coherent %d B (%d not-modified, %d deltas, %d fulls) vs refetch %d B: %.1fx fewer bytes",
		coh.Bytes, coh.NotModified, coh.Deltas, coh.Fulls, base.Bytes, reduction)
}
