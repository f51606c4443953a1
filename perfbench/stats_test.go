package main

import (
	"runtime"
	"runtime/debug"
	"testing"
)

func TestTailPermille(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{0, 0}, {19, 0}, {20, 500}, {99, 500}, {100, 900}, {999, 900},
		{1000, 990}, {9999, 990}, {10000, 999},
	} {
		if got := tailPermille(c.n); got != c.want {
			t.Errorf("tailPermille(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestMinSamples(t *testing.T) {
	for p, want := range map[int]int{500: 20, 900: 100, 990: 1000, 999: 10000} {
		if got := minSamples(p); got != want {
			t.Errorf("minSamples(%d) = %d, want %d", p, got, want)
		}
		if samplesBeyond(want, p) < minBeyond || samplesBeyond(want-1, p) >= minBeyond {
			t.Errorf("minSamples(%d) = %d is not the smallest count with %d beyond", p, want, minBeyond)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	s := sortedCopy(xs)
	if xs[0] != 100 {
		t.Fatal("sortedCopy changed its input")
	}
	for p, want := range map[int]float64{500: 50, 900: 90, 990: 99, 999: 100, 0: 1} {
		if got := percentile(s, p); got != want {
			t.Errorf("percentile(1..100, %d) = %v, want %v", p, got, want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v, want 2", got)
	}
}

// TestPeakRSSResets checks that a phase's peak resident memory does not
// include memory the process held before the phase began.
func TestPeakRSSResets(t *testing.T) {
	buf := make([]byte, 64<<20)
	for i := 0; i < len(buf); i += 4096 {
		buf[i] = 1
	}
	high, err := peakRSSMB()
	runtime.KeepAlive(buf)
	if err != nil {
		t.Fatal(err)
	}
	buf = nil
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		t.Fatal(err)
	}
	low, err := peakRSSMB()
	if err != nil {
		t.Fatal(err)
	}
	if low > high-32 {
		t.Errorf("peak after reset %.1f MB, before %.1f MB: the 64 MB freed before the reset is still counted", low, high)
	}
}
