package main

import (
	"sync/atomic"
	"testing"
	"time"
)

// runBrief sets up a workload, runs a short traced phase after an
// untraced one, and runs its correctness and crash checks.
func runBrief(t *testing.T, name string) {
	t.Helper()
	ctr, tr := &counters{}, newTracer()
	w := newWorkload(name, t.TempDir(), 11, ctr, tr, &atomic.Uint64{})
	defer w.close()
	if _, err := w.setup(); err != nil {
		t.Fatal(err)
	}
	if err := w.prepare(); err != nil {
		t.Fatal(err)
	}
	base, err := measure(w, ctr, tr, 100*time.Millisecond, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	ph, err := measure(w, ctr, tr, 100*time.Millisecond, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if ph.failed+base.failed != 0 || len(ph.spans) == 0 {
		t.Fatalf("failed %d, spans %d", ph.failed+base.failed, len(ph.spans))
	}
	for _, m := range perLayer(ph, base, calibration{}, 0) {
		if m.value != m.value {
			t.Errorf("%s is NaN", m.name)
		}
	}
	if err := w.verify(); err != nil {
		t.Fatal(err)
	}
}

func TestTxnMixSmoke(t *testing.T)    { runBrief(t, "txn-mix") }
func TestOO7UpdateSmoke(t *testing.T) { runBrief(t, "oo7-update") }
func TestOO7ColdSmoke(t *testing.T)   { runBrief(t, "oo7-cold") }
