package sim

import (
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestChargeAndElapsed(t *testing.T) {
	var m CostModel
	m[CtrServerDiskRead] = 1000
	m[CtrPageFaultTrap] = 10
	k := NewClock(m)
	k.Charge(CtrServerDiskRead, 3)
	k.Charge(CtrPageFaultTrap, 2)
	k.Charge(CtrDeref, 100) // zero-cost counter: counted, free
	if got := k.Count(CtrServerDiskRead); got != 3 {
		t.Fatalf("count = %d", got)
	}
	if got := k.Count(CtrDeref); got != 100 {
		t.Fatalf("deref count = %d", got)
	}
	want := 3*1000.0 + 2*10.0
	if got := k.ElapsedMicros(); got != want {
		t.Fatalf("elapsed = %v, want %v", got, want)
	}
}

func TestChargeZeroIsNoop(t *testing.T) {
	k := NewClock(DefaultCostModel())
	k.Charge(CtrServerDiskRead, 0)
	if k.Count(CtrServerDiskRead) != 0 {
		t.Fatal("zero charge counted")
	}
}

func TestSnapshotSub(t *testing.T) {
	k := NewClock(DefaultCostModel())
	k.Charge(CtrClientRead, 5)
	s1 := k.Snapshot()
	k.Charge(CtrClientRead, 7)
	k.Charge(CtrMmapCall, 2)
	d := k.Snapshot().Sub(s1)
	if d.Count(CtrClientRead) != 7 {
		t.Fatalf("delta reads = %d", d.Count(CtrClientRead))
	}
	if d.Count(CtrMmapCall) != 2 {
		t.Fatalf("delta mmap = %d", d.Count(CtrMmapCall))
	}
	if d.ElapsedMicros() != 2*DefaultCostModel()[CtrMmapCall] {
		t.Fatalf("delta micros = %v", d.ElapsedMicros())
	}
}

func TestCounterNames(t *testing.T) {
	seen := map[string]bool{}
	for c := Counter(0); c < NumCounters; c++ {
		name := c.String()
		if name == "" || strings.HasPrefix(name, "counter(") {
			t.Fatalf("counter %d has no name", c)
		}
		if seen[name] {
			t.Fatalf("duplicate counter name %q", name)
		}
		seen[name] = true
	}
	if !strings.HasPrefix(Counter(-1).String(), "counter(") {
		t.Fatal("out-of-range counter name")
	}
}

func TestSnapshotString(t *testing.T) {
	k := NewClock(DefaultCostModel())
	k.Charge(CtrServerDiskRead, 2)
	k.Charge(CtrMmapCall, 1)
	s := k.Snapshot().String()
	if !strings.Contains(s, "server.disk.read") || !strings.Contains(s, "vm.mmap") {
		t.Fatalf("snapshot string missing counters:\n%s", s)
	}
	// Sorted by charged time: disk read first.
	if strings.Index(s, "server.disk.read") > strings.Index(s, "vm.mmap") {
		t.Fatal("snapshot not sorted by time")
	}
}

func TestDefaultModelCalibration(t *testing.T) {
	m := DefaultCostModel()
	// The paper's Table 6 anchors: data I/O dominates a cold fault.
	faultUs := m[CtrServerDiskRead] + m[CtrServerBufferHit] + m[CtrPageFaultTrap] +
		m[CtrMinFault] + m[CtrMmapCall] + m[CtrMiscFaultCPU]
	ioShare := (m[CtrServerDiskRead] + m[CtrServerBufferHit]) / faultUs
	if ioShare < 0.75 || ioShare > 0.92 {
		t.Errorf("data I/O share of a cold fault = %.2f, want ~0.82-0.85", ioShare)
	}
	// An E fault (just the I/O legs) must be ~20%% cheaper than a QS fault.
	r := faultUs / (m[CtrServerDiskRead] + m[CtrServerBufferHit])
	if r < 1.08 || r > 1.35 {
		t.Errorf("QS/E per-fault ratio = %.2f, want ~1.2", r)
	}
	// Update-path anchors from Section 5.2.
	if m[CtrRecoveryCopy] < 5000 || m[CtrRecoveryCopy] > 10000 {
		t.Errorf("recovery copy = %v, paper ~7.3ms", m[CtrRecoveryCopy])
	}
	if m[CtrLockUpgrade] < 2000 || m[CtrLockUpgrade] > 4000 {
		t.Errorf("lock upgrade = %v, paper ~2.8ms", m[CtrLockUpgrade])
	}
}

// Concurrent charges stay exact, and a reader's snapshots never run
// backwards: the clock is shared by a server, its clients and the
// prefetch workers.
func TestClockConcurrency(t *testing.T) {
	m := DefaultCostModel()
	k := NewClock(m)
	ctrs := []Counter{CtrClientRead, CtrServerDiskRead, CtrDeref, CtrDiffByte, CtrLogByte}
	const workers, iters = 8, 2000
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for prev := k.Snapshot(); ; {
			select {
			case <-stop:
				return
			default:
			}
			cur := k.Snapshot()
			for c := Counter(0); c < NumCounters; c++ {
				if d := cur.Sub(prev).Count(c); d < 0 {
					t.Errorf("snapshot delta of %v = %d", c, d)
				}
			}
			prev = cur
		}
	}()
	var wg sync.WaitGroup
	want := map[Counter]int64{}
	for w := 0; w < workers; w++ {
		c := ctrs[w%len(ctrs)]
		want[c] += iters / 2 * (1 + 8192)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				k.Charge(c, []int64{1, 8192}[j%2])
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-done
	for c := Counter(0); c < NumCounters; c++ {
		if got := k.Count(c); got != want[c] {
			t.Errorf("count of %v = %d, want %d", c, got, want[c])
		}
		if got := k.Micros(c); got != float64(k.Count(c))*m[c] {
			t.Errorf("micros of %v = %v, want count x cost", c, got)
		}
	}
}

func TestChargeAllocatesNothing(t *testing.T) {
	k := NewClock(DefaultCostModel())
	if n := testing.AllocsPerRun(1000, func() { k.Charge(CtrDeref, 1) }); n != 0 {
		t.Fatalf("Charge allocates %v per call", n)
	}
}

func BenchmarkClockCharge(b *testing.B) {
	k := NewClock(DefaultCostModel())
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			k.Charge(CtrDeref, 1)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				k.Charge(CtrDeref, 1)
			}
		})
	})
}

// Property: Snapshot.Sub is exact for any sequence of charges.
func TestSnapshotSubProperty(t *testing.T) {
	f := func(charges []uint8) bool {
		k := NewClock(DefaultCostModel())
		mid := len(charges) / 2
		for _, c := range charges[:mid] {
			k.Charge(Counter(int(c)%int(NumCounters)), 1)
		}
		s1 := k.Snapshot()
		for _, c := range charges[mid:] {
			k.Charge(Counter(int(c)%int(NumCounters)), 1)
		}
		d := k.Snapshot().Sub(s1)
		var total int64
		for c := Counter(0); c < NumCounters; c++ {
			if d.Count(c) < 0 {
				return false
			}
			total += d.Count(c)
		}
		return total == int64(len(charges)-mid)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
