// Command perfbench is the repository's wall-clock benchmark. It builds a
// database for one workload and runs it closed-loop from this process,
// through core.Store, esm.Client and the multiplexed TCP transport, to an
// in-process esm.Server on a file volume and a file log whose every commit
// is forced with fsync. See README.md for the workloads and metrics.
//
//	perfbench --workload oo7-hot --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object with the fields
// correct, attempted, failed and metrics: the end-to-end metrics of an
// untraced run, or with --trace 1 the per-layer metrics of a traced one.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"
)

// setupReps is how many times an untraced run sets up its database;
// setup_s is the median.
const setupReps = 5

// outDir holds everything a run writes, relative to the checkout root.
const outDir = ".bench_build"

// spec describes a workload for the report.
type spec struct {
	sessions, conns          int
	clientPages, serverPages int
	what                     string
}

var specs = map[string]spec{
	"oo7-hot":    {1, 1, warmClientPages, warmServerPages, "one warm session repeats T1 on the small OO7 database"},
	"oo7-cold":   {1, 1, coldClientPages, coldServerPages, "each op is a fresh session running T1 on one shared connection"},
	"oo7-update": {1, 1, warmClientPages, warmServerPages, "one warm session repeats T2B, checkpointing every 16 ops"},
	"txn-mix":    {txnSessions, txnSessions, warmClientPages, warmServerPages, "two sessions run short transactions, checkpointing every 4096"},
}

func newWorkload(name, dir string, seed int64, ctr *counters, t *tracer, opSeq *atomic.Uint64) workload {
	switch name {
	case "oo7-hot", "oo7-cold", "oo7-update":
		return &oo7Bench{kind: name[len("oo7-"):], dir: dir, seed: seed, ctr: ctr, t: t, opSeq: opSeq}
	case "txn-mix":
		return &txnBench{dir: dir, seed: seed, ctr: ctr, t: t, opSeq: opSeq}
	}
	return nil
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "oo7-hot, oo7-cold, oo7-update or txn-mix")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 25, "length of the timed phase")
	traceFlag := flag.Int("trace", 0, "1: record spans and report per-layer metrics")
	flag.Parse()
	if raceBuild {
		fmt.Fprintln(os.Stderr, "perfbench: built with -race; its timings would be meaningless, so it reports none")
		return 2
	}
	sp, ok := specs[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload oo7-hot|oo7-cold|oo7-update|txn-mix --seed N --seconds S --trace 0|1")
		return 2
	}
	traced := *traceFlag == 1
	runDir := filepath.Join(outDir, fmt.Sprintf("run-%s-%d", *name, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(runDir)

	cal := calibrate()
	fmt.Printf("perfbench: workload %s, seed %d, %ds timed, trace %d\n", *name, *seed, *seconds, *traceFlag)
	fmt.Printf("wrapper overhead against a no-op transport: %.1f ns/call counting, %.1f ns/call tracing; layer times below that are noise\n", cal.countNs, cal.traceNs)

	ctr, t, opSeq := &counters{}, newTracer(), &atomic.Uint64{}
	reps := setupReps
	if traced {
		reps = 1
	}
	var w workload
	var setupS []float64
	var openDur time.Duration
	for i := 0; i < reps; i++ {
		if w != nil {
			if err := w.close(); err != nil {
				return fail(err)
			}
		}
		dir := filepath.Join(runDir, strconv.Itoa(i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fail(err)
		}
		w = newWorkload(*name, dir, *seed, ctr, t, opSeq)
		runtime.GC()
		start := time.Now()
		d, err := w.setup()
		setupS = append(setupS, time.Since(start).Seconds())
		if err != nil {
			w.close()
			return fail(fmt.Errorf("set-up: %w", err))
		}
		openDur = d
	}
	defer w.close()
	dbPages := w.env().fvol.AllocatedPages()
	fmt.Printf("database %d pages; client pool %d pages; server pool %d pages; %d sessions on %d connections; every commit forces the log with fsync (CommitWindow 0)\n",
		dbPages, sp.clientPages, sp.serverPages, sp.sessions, sp.conns)
	fmt.Printf("workload: %s\n", sp.what)
	if err := w.prepare(); err != nil {
		return fail(err)
	}

	d := time.Duration(*seconds) * time.Second
	var ph, base *phase
	var err error
	if traced {
		if base, err = measure(w, ctr, t, d/2, minSamples(500), false); err == nil {
			ph, err = measure(w, ctr, t, d/2, minSamples(500), true)
		}
	} else {
		ph, err = measure(w, ctr, t, d, minSamples(900), false)
	}
	if err != nil {
		return fail(err)
	}
	if err := w.verify(); err != nil {
		return fail(err)
	}

	attempted, failed := len(ph.lat)+ph.failed, ph.failed
	if base != nil {
		attempted += len(base.lat) + base.failed
		failed += base.failed
	}
	fmt.Printf("%d ops in %.2fs; tail rule: p%.1f is the highest percentile with at least %d samples beyond it\n",
		len(ph.lat), ph.elapsed.Seconds(), float64(tailPermille(len(ph.lat)))/10, minBeyond)
	fmt.Printf("failed_ratio %g fraction (%d of %d attempted)\n", float64(failed)/float64(attempted), failed, attempted)
	fmt.Println("correctness: every op's result and every crash-recovery check passed")

	var ms []metric
	if traced {
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.tsv", *name, *seed))
		if err := writeSpans(path, ph.spans); err != nil {
			return fail(err)
		}
		fmt.Printf("%d spans written to %s\n", len(ph.spans), path)
		ms = perLayer(ph, base, cal, openDur)
	} else {
		ms = endToEnd(ph, setupS)
		fmt.Printf("setup_s samples: %v\n", setupS)
	}
	out := map[string]map[string]any{}
	for _, m := range ms {
		fmt.Printf("%-36s %14.4f %s\n", m.name, m.value, m.unit)
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fail(fmt.Errorf("metric %s is %v", m.name, m.value))
		}
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	return emit(true, attempted, failed, out)
}

// fail reports err and prints a result line marking the run incorrect
// when a correctness check failed.
func fail(err error) int {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	if isCheck(err) {
		emit(false, 1, 0, map[string]map[string]any{})
	}
	return 1
}

func emit(correct bool, attempted, failed int, ms map[string]map[string]any) int {
	b, err := json.Marshal(struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{correct, attempted, failed, ms})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}
