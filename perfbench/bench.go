package main

import (
	"errors"
	"runtime"
	"runtime/debug"
	"time"

	"quickstore/internal/esm"
	"quickstore/internal/sim"
)

// workload is one of the benchmark's closed-loop workloads.
type workload interface {
	// setup opens the server, generates and checkpoints the database and
	// warms the sessions; it is what setup_s times. It returns the
	// duration of the last session construction.
	setup() (time.Duration, error)
	// prepare records what the correctness checks compare against. It
	// runs after set-up, outside any timing.
	prepare() error
	// run executes ops until d has passed and at least minOps completed.
	run(ph *phase, d time.Duration, minOps int) error
	// client sums the sessions' own counters so far.
	client() clientCounts
	// verify crashes the server, recovers it and checks every
	// acknowledged write (a no-op for read-only workloads).
	verify() error
	env() *env
	close() error
}

// maxExtra bounds how far past its nominal length a timed phase may run to
// collect the minimum number of samples.
const maxExtra = 60 * time.Second

// checkError is a failed correctness check. It fails the run; it is never
// counted as a failed op.
type checkError struct{ error }

func isCheck(err error) bool {
	var c checkError
	return errors.As(err, &c)
}

// phase is what one timed phase measured.
type phase struct {
	start   time.Time
	lat     []float64 // completed op latencies, ms
	failed  int       // ops that returned an error
	elapsed time.Duration
	ckptMs  []float64 // checkpoints taken during the phase
	openMs  []float64 // session constructions inside ops
	peakMB  float64   // peak resident memory during the phase
	ctr     counts
	srv     esm.ServerStats // deltas
	cli     clientCounts
	alloc   uint64 // bytes allocated
	gcs     uint32
	pauseNs uint64
	spans   []span
}

// coreCounters are the session sim.Clock counts the benchmark reports.
var coreCounters = []struct {
	name string
	c    sim.Counter
}{
	{"recovery_copies", sim.CtrRecoveryCopy},
	{"page_diffs", sim.CtrPageDiff},
	{"log_records", sim.CtrLogRecord},
	{"map_entries", sim.CtrMapEntry},
	{"swizzled_ptrs", sim.CtrSwizzledPtr},
	{"mmap_calls", sim.CtrMmapCall},
}

// clientCounts are counts kept by the sessions themselves.
type clientCounts struct {
	clk             [6]int64 // coreCounters, in order
	vmAcc, vmFaults int64
}

func (ss *session) counts() clientCounts {
	var c clientCounts
	for i, cc := range coreCounters {
		c.clk[i] = ss.clock.Count(cc.c)
	}
	c.vmAcc = ss.s.Space().Accesses()
	c.vmFaults = ss.s.Space().Faults()
	return c
}

func (c clientCounts) add(b clientCounts) clientCounts {
	for i := range c.clk {
		c.clk[i] += b.clk[i]
	}
	c.vmAcc += b.vmAcc
	c.vmFaults += b.vmFaults
	return c
}

func (c clientCounts) sub(b clientCounts) clientCounts {
	for i := range c.clk {
		c.clk[i] -= b.clk[i]
	}
	c.vmAcc -= b.vmAcc
	c.vmFaults -= b.vmFaults
	return c
}

// measure runs one timed phase of w, with spans recorded when traced.
func measure(w workload, ctr *counters, t *tracer, d time.Duration, minOps int, traced bool) (*phase, error) {
	// Return set-up's garbage to the operating system, so the phase's
	// peak resident memory starts from what is live.
	debug.FreeOSMemory()
	ph := &phase{}
	c0, cl0 := ctr.snapshot(), w.client()
	s0, err := w.env().stats()
	if err != nil {
		return nil, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t.take()
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	t.on.Store(traced)
	ph.start = time.Now()
	err = w.run(ph, d, minOps)
	ph.elapsed = time.Since(ph.start)
	t.on.Store(false)
	peak, peakErr := peakRSSMB()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, err
	}
	if peakErr != nil {
		return nil, peakErr
	}
	ph.peakMB = peak
	ph.spans = t.take()
	ph.ctr = ctr.snapshot().sub(c0)
	ph.cli = w.client().sub(cl0)
	s1, err := w.env().stats()
	if err != nil {
		return nil, err
	}
	ph.srv = statsDelta(s1, s0)
	ph.alloc = m1.TotalAlloc - m0.TotalAlloc
	ph.gcs = m1.NumGC - m0.NumGC
	ph.pauseNs = m1.PauseTotalNs - m0.PauseTotalNs
	return ph, nil
}

// statsDelta subtracts the server counters the benchmark reports.
func statsDelta(a, b esm.ServerStats) esm.ServerStats {
	return esm.ServerStats{
		PoolHits:       a.PoolHits - b.PoolHits,
		PoolMisses:     a.PoolMisses - b.PoolMisses,
		PoolEvicted:    a.PoolEvicted - b.PoolEvicted,
		Commits:        a.Commits - b.Commits,
		LogForces:      a.LogForces - b.LogForces,
		LogPiggybacks:  a.LogPiggybacks - b.LogPiggybacks,
		LockGrants:     a.LockGrants - b.LockGrants,
		LockWaits:      a.LockWaits - b.LockWaits,
		NetFlushes:     a.NetFlushes - b.NetFlushes,
		NetFrames:      a.NetFrames - b.NetFrames,
		CohNotModified: a.CohNotModified - b.CohNotModified,
		CohDeltas:      a.CohDeltas - b.CohDeltas,
		CohFulls:       a.CohFulls - b.CohFulls,
	}
}

// serialLoop runs op back to back on one session until d has passed and
// at least minOps completed, checkpointing after every ckptEvery-th op
// when ckpt is set. op returns a checkError to fail the run; any other
// error counts as a failed op.
func serialLoop(ph *phase, d time.Duration, minOps int, op func() error, ckptEvery int, ckpt func() (time.Duration, error)) error {
	for n := 1; ; n++ {
		el := time.Since(ph.start)
		if (el >= d && len(ph.lat) >= minOps) || el >= d+maxExtra {
			return nil
		}
		t0 := time.Now()
		err := op()
		t1 := time.Now()
		switch {
		case isCheck(err):
			return err
		case err != nil:
			ph.failed++
		default:
			ph.lat = append(ph.lat, float64(t1.Sub(t0))/1e6)
		}
		if ckpt != nil && n%ckptEvery == 0 {
			cd, err := ckpt()
			if err != nil {
				return err
			}
			ph.ckptMs = append(ph.ckptMs, float64(cd)/1e6)
		}
	}
}
