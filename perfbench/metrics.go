package main

import (
	"errors"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"quickstore/internal/disk"
	"quickstore/internal/esm"
)

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// endToEnd computes the user-visible metrics of an untraced phase.
func endToEnd(ph *phase, setupS []float64) []metric {
	ops := float64(len(ph.lat))
	s := sortedCopy(ph.lat)
	written := float64(ph.ctr.walBytes + ph.ctr.ioCalls[ioWrite]*disk.PageSize)
	return []metric{
		{"ops_per_s", ops / ph.elapsed.Seconds(), "ops/s"},
		{"op_p50_ms", percentile(s, 500), "ms"},
		{"op_p90_ms", percentile(s, 900), "ms"},
		{"setup_s", median(setupS), "s"},
		{"peak_rss_mb", ph.peakMB, "MB"},
		{"write_kb_per_op", written / 1024 / ops, "KB"},
	}
}

// resetPeakRSS sets the process's resident-memory high-water mark to its
// current resident memory (Linux: "5" to /proc/self/clear_refs).
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's resident-memory high-water mark since the
// last resetPeakRSS, the VmHWM line of /proc/self/status.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}

// perLayer computes the layer metrics of a traced phase. base is the
// untraced phase run just before it, for the tracing overhead; openDur is
// the set-up session construction, used when the phase opened none.
func perLayer(ph, base *phase, cal calibration, openDur time.Duration) []metric {
	ops := float64(len(ph.lat))
	perOp := func(n int64) float64 { return float64(n) / ops }
	meanUs := func(ns, calls int64) float64 { return ratio(float64(ns), float64(calls), 0) / 1e3 }
	var ms []metric
	add := func(name string, v float64, unit string) { ms = append(ms, metric{name, v, unit}) }

	// Self time per span, summed per layer; client time outside the
	// transport is the workload's and core's self time inside ops.
	self := selfTimes(ph.spans)
	layerNs := map[string]int64{}
	var clientSelf, unjoined, joinable int64
	var beginNs, beginN, commitNs, commitN int64
	var openNs []float64
	for _, s := range ph.spans {
		l := layerOf(s.name)
		layerNs[l] += self[s.id]
		if (l == "workload" || l == "core") && s.op != 0 {
			clientSelf += self[s.id]
		}
		if l == "esm_server" || l == "disk" {
			joinable++
			if s.parent == 0 {
				unjoined++
			}
		}
		switch s.name {
		case spanBegin:
			beginNs += s.end - s.start
			beginN++
		case spanCommit:
			commitNs += s.end - s.start
			commitN++
		case spanOpen:
			openNs = append(openNs, float64(s.end-s.start))
		}
	}
	openMs := float64(openDur) / 1e6
	if len(openNs) > 0 {
		openMs = mean(openNs) / 1e6
	}
	add("core.self_ms_per_op", float64(clientSelf)/1e6/ops, "ms")
	add("core.begin_us", meanUs(beginNs, beginN), "us")
	add("core.commit_ms", meanUs(commitNs, commitN)/1e3, "ms")
	add("core.open_ms", openMs, "ms")
	for i, cc := range coreCounters {
		add("core."+cc.name+"_per_op", perOp(ph.cli.clk[i]), "count")
	}

	add("vmem.accesses_per_op", perOp(ph.cli.vmAcc), "count")
	add("vmem.faults_per_op", perOp(ph.cli.vmFaults), "count")
	add("vmem.ns_per_access", ratio(float64(clientSelf), float64(ph.cli.vmAcc), 0), "ns")

	c := ph.ctr
	for _, k := range reportedRPCs {
		n := rpcNames[k]
		rpcUs := meanUs(c.rpcNs[k], c.rpcCalls[k])
		srvUs := meanUs(c.srvNs[k], c.srvCalls[k])
		add("esm.rpc."+n+".per_op", perOp(c.rpcCalls[k]), "count")
		add("esm.rpc."+n+".us", rpcUs, "us")
		add("esm.server."+n+".us", srvUs, "us")
		add("esm.wire."+n+".us", rpcUs-srvUs, "us")
	}
	sv := ph.srv
	add("esm.net.frames_per_flush", ratio(float64(sv.NetFrames), float64(sv.NetFlushes), 0), "count")
	add("esm.coh.not_modified_per_op", perOp(sv.CohNotModified), "count")
	add("esm.coh.deltas_per_op", perOp(sv.CohDeltas), "count")
	add("esm.coh.fulls_per_op", perOp(sv.CohFulls), "count")
	add("esm.checkpoint_ms", mean(ph.ckptMs), "ms")

	add("buffer.client.hit_ratio", 1-ratio(float64(c.rpcCalls[rpcReadPage]), float64(ph.cli.vmFaults), 0), "ratio")
	add("buffer.server.hit_ratio", ratio(float64(sv.PoolHits), float64(sv.PoolHits+sv.PoolMisses), 1), "ratio")
	add("buffer.server.evictions_per_op", perOp(sv.PoolEvicted), "count")

	add("lock.grants_per_op", perOp(sv.LockGrants), "count")
	add("lock.waits_per_op", perOp(sv.LockWaits), "count")

	add("wal.forces_per_op", perOp(c.walForces), "count")
	add("wal.forces_per_commit", ratio(float64(c.walForces), float64(sv.Commits), 0), "ratio")
	add("wal.piggyback_ratio", ratio(float64(sv.LogPiggybacks), float64(sv.Commits), 0), "ratio")
	add("wal.bytes_per_op", perOp(c.walBytes), "B")

	for k, n := range [numIO]string{"reads", "writes", "syncs"} {
		add("disk."+n+"_per_op", perOp(c.ioCalls[k]), "count")
		add("disk."+n[:len(n)-1]+"_us", meanUs(c.ioNs[k], c.ioCalls[k]), "us")
	}

	add("runtime.alloc_kb_per_op", float64(ph.alloc)/1024/ops, "KB")
	add("runtime.gc_per_op", float64(ph.gcs)/ops, "count")
	add("runtime.gc_pause_ms", float64(ph.pauseNs)/1e6/ops, "ms")

	for _, l := range traceLayers {
		add("trace.self."+l+".ms_per_op", float64(layerNs[l])/1e6/ops, "ms")
	}
	add("trace.spans_per_op", perOp(int64(len(ph.spans))), "count")
	add("trace.unjoined_ratio", ratio(float64(unjoined), float64(joinable), 0), "ratio")
	add("trace.overhead_ms", percentile(sortedCopy(ph.lat), 500)-percentile(sortedCopy(base.lat), 500), "ms")
	add("harness.count_ns_per_call", cal.countNs, "ns")
	add("harness.trace_ns_per_call", cal.traceNs, "ns")
	return ms
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)), 0)
}

// calibration is the wrappers' own cost per call, measured against a
// transport that does nothing. A layer time smaller than this is noise.
type calibration struct{ countNs, traceNs float64 }

type noopTransport struct{ resp *esm.Response }

func (n noopTransport) Call(*esm.Request) (*esm.Response, error) { return n.resp, nil }
func (n noopTransport) Close() error                             { return nil }

// calibrate times calls through the client wrapper, counting only and
// tracing, minus direct calls; each figure is the best of three.
func calibrate() calibration {
	const calls = 50_000
	inner := noopTransport{resp: &esm.Response{}}
	req := &esm.Request{Op: esm.OpReadPage}
	best := func(tr esm.Transport, before func()) float64 {
		b := math.Inf(1)
		for i := 0; i < 3; i++ {
			before()
			start := time.Now()
			for j := 0; j < calls; j++ {
				_, _ = tr.Call(req) // the no-op transport cannot fail
			}
			b = math.Min(b, float64(time.Since(start))/calls)
		}
		return b
	}
	t := newTracer()
	w := &clientTransport{inner: inner, ctr: &counters{}, st: &sessTrace{t: t}}
	reset := func() { t.take() }
	direct := best(inner, reset)
	counting := best(w, reset)
	t.on.Store(true)
	traced := best(w, reset)
	t.on.Store(false)
	t.take()
	return calibration{countNs: counting - direct, traceNs: traced - direct}
}
