package vmem

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"unsafe"

	"quickstore/internal/sim"
)

const testBase Addr = 0x1000000000

func newSpace() *Space {
	return NewSpace(testBase, 64, sim.NewClock(sim.DefaultCostModel()))
}

func TestAddrHelpers(t *testing.T) {
	a := Addr(0x12345)
	if a.FrameBase() != 0x12000 {
		t.Fatalf("FrameBase = %#x", a.FrameBase())
	}
	if a.Offset() != 0x345 {
		t.Fatalf("Offset = %#x", a.Offset())
	}
}

func TestMapReadWrite(t *testing.T) {
	s := newSpace()
	data := make([]byte, FrameSize)
	if err := s.Map(testBase, data, ProtWrite); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteU64(testBase+16, 0xCAFEBABE); err != nil {
		t.Fatal(err)
	}
	v, err := s.ReadU64(testBase + 16)
	if err != nil || v != 0xCAFEBABE {
		t.Fatalf("ReadU64 = %#x, %v", v, err)
	}
	// The mapping aliases the caller's slice — in-place buffer access.
	if data[16] != 0xBE {
		t.Fatal("write did not land in the backing slice")
	}
	// 8/16/32-bit accessors.
	s.WriteU8(testBase, 7)
	s.WriteU16(testBase+2, 0x1234)
	s.WriteU32(testBase+4, 0x89ABCDEF)
	if b, _ := s.ReadU8(testBase); b != 7 {
		t.Fatal("u8")
	}
	if v, _ := s.ReadU16(testBase + 2); v != 0x1234 {
		t.Fatal("u16")
	}
	if v, _ := s.ReadU32(testBase + 4); v != 0x89ABCDEF {
		t.Fatal("u32")
	}
}

func TestProtectionLattice(t *testing.T) {
	if ProtNone.allows(AccessRead) || ProtNone.allows(AccessWrite) {
		t.Fatal("ProtNone allows something")
	}
	if !ProtRead.allows(AccessRead) || ProtRead.allows(AccessWrite) {
		t.Fatal("ProtRead wrong")
	}
	if !ProtWrite.allows(AccessRead) || !ProtWrite.allows(AccessWrite) {
		t.Fatal("ProtWrite wrong")
	}
}

func TestFaultOnUnmappedAndProtected(t *testing.T) {
	s := newSpace()
	var faults []struct {
		a   Addr
		acc Access
	}
	backing := make([]byte, FrameSize)
	backing[100] = 42
	s.SetHandler(func(a Addr, acc Access) error {
		faults = append(faults, struct {
			a   Addr
			acc Access
		}{a, acc})
		// Behave like the QuickStore fault handler: map and enable.
		prot := ProtRead
		if acc == AccessWrite {
			prot = ProtWrite
		}
		return s.Map(a.FrameBase(), backing, prot)
	})
	// Read of an unmapped frame faults once, then succeeds.
	v, err := s.ReadU8(testBase + 100)
	if err != nil || v != 42 {
		t.Fatalf("read after fault: %d, %v", v, err)
	}
	if len(faults) != 1 || faults[0].acc != AccessRead || faults[0].a != testBase+100 {
		t.Fatalf("faults = %+v", faults)
	}
	// A second read is fault-free.
	if _, err := s.ReadU8(testBase + 101); err != nil {
		t.Fatal(err)
	}
	if len(faults) != 1 {
		t.Fatal("hot read faulted")
	}
	// A write to the read-only frame faults with AccessWrite.
	if err := s.WriteU8(testBase+5, 9); err != nil {
		t.Fatal(err)
	}
	if len(faults) != 2 || faults[1].acc != AccessWrite {
		t.Fatalf("write fault missing: %+v", faults)
	}
	if s.Faults() != 2 {
		t.Fatalf("Faults() = %d", s.Faults())
	}
}

func TestFaultHandlerFailurePropagates(t *testing.T) {
	s := newSpace()
	boom := errors.New("disk on fire")
	s.SetHandler(func(Addr, Access) error { return boom })
	if _, err := s.ReadU8(testBase); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// Handler that "succeeds" without fixing the protection is detected.
	s.SetHandler(func(Addr, Access) error { return nil })
	if _, err := s.ReadU8(testBase); !errors.Is(err, ErrStillFaulted) {
		t.Fatalf("err = %v", err)
	}
}

func TestNoHandler(t *testing.T) {
	s := newSpace()
	if _, err := s.ReadU8(testBase); !errors.Is(err, ErrNoHandler) {
		t.Fatalf("err = %v", err)
	}
}

func TestRecursiveFaultDetected(t *testing.T) {
	s := newSpace()
	s.SetHandler(func(a Addr, acc Access) error {
		// A buggy handler that dereferences an unmapped address.
		_, err := s.ReadU8(testBase + FrameSize)
		return err
	})
	if _, err := s.ReadU8(testBase); !errors.Is(err, ErrRecursive) {
		t.Fatalf("err = %v", err)
	}
}

func TestOutOfRangeAndCrossFrame(t *testing.T) {
	s := newSpace()
	if _, err := s.ReadU8(testBase - 1); !errors.Is(err, ErrOutOfRange) {
		t.Fatal("below base not rejected")
	}
	if _, err := s.ReadU8(testBase + 64*FrameSize); !errors.Is(err, ErrOutOfRange) {
		t.Fatal("beyond last frame not rejected")
	}
	s.Map(testBase, make([]byte, FrameSize), ProtRead)
	if _, err := s.ReadU64(testBase + FrameSize - 4); !errors.Is(err, ErrCrossesFrame) {
		t.Fatal("cross-frame access not rejected")
	}
	if err := s.Map(testBase+1, make([]byte, FrameSize), ProtRead); err == nil {
		t.Fatal("unaligned Map accepted")
	}
	if err := s.Map(testBase, make([]byte, 100), ProtRead); err == nil {
		t.Fatal("short backing accepted")
	}
}

func TestProtectAndUnmap(t *testing.T) {
	s := newSpace()
	s.Map(testBase, make([]byte, FrameSize), ProtWrite)
	s.Protect(testBase, ProtNone)
	p, _ := s.ProtOf(testBase)
	if p != ProtNone {
		t.Fatal("Protect did not take")
	}
	faulted := 0
	s.SetHandler(func(a Addr, acc Access) error {
		faulted++
		return s.Protect(a.FrameBase(), ProtRead)
	})
	if _, err := s.ReadU8(testBase); err != nil {
		t.Fatal(err)
	}
	if faulted != 1 {
		t.Fatal("reprotected frame did not fault")
	}
	// Unmap drops the backing entirely.
	s.Unmap(testBase)
	if d, _ := s.Mapped(testBase); d != nil {
		t.Fatal("Unmap left backing")
	}
}

func TestProtectAllOnlyTouchesMapped(t *testing.T) {
	s := newSpace()
	s.Map(testBase, make([]byte, FrameSize), ProtWrite)
	s.Map(testBase+2*FrameSize, make([]byte, FrameSize), ProtRead)
	s.ProtectAll(ProtNone)
	for _, a := range []Addr{testBase, testBase + 2*FrameSize} {
		if p, _ := s.ProtOf(a); p != ProtNone {
			t.Fatalf("frame %#x prot %v", a, p)
		}
	}
	// Remapping after ProtectAll restores access.
	s.Protect(testBase, ProtRead)
	if _, err := s.ReadU8(testBase); err != nil {
		t.Fatal(err)
	}
}

func TestRemapDifferentBacking(t *testing.T) {
	// Figure 1d: the same virtual frame remapped to a different buffer
	// frame after its page was replaced and reread.
	s := newSpace()
	b1 := make([]byte, FrameSize)
	b2 := make([]byte, FrameSize)
	b1[0], b2[0] = 1, 2
	s.Map(testBase, b1, ProtRead)
	if v, _ := s.ReadU8(testBase); v != 1 {
		t.Fatal("first mapping")
	}
	s.Map(testBase, b2, ProtRead)
	if v, _ := s.ReadU8(testBase); v != 2 {
		t.Fatal("remap did not switch backing")
	}
}

func TestTrapChargedToClock(t *testing.T) {
	clock := sim.NewClock(sim.DefaultCostModel())
	s := NewSpace(testBase, 4, clock)
	s.SetHandler(func(a Addr, acc Access) error {
		return s.Map(a.FrameBase(), make([]byte, FrameSize), ProtRead)
	})
	s.ReadU8(testBase)
	s.ReadU8(testBase) // hot
	if clock.Count(sim.CtrPageFaultTrap) != 1 {
		t.Fatalf("traps charged = %d", clock.Count(sim.CtrPageFaultTrap))
	}
}

// Property: for any sequence of in-frame writes, reads observe exactly the
// last value written, and access counting is exact.
func TestReadYourWritesProperty(t *testing.T) {
	f := func(offs []uint16, vals []byte) bool {
		if len(vals) < len(offs) {
			if len(vals) == 0 {
				return true
			}
			offs = offs[:len(vals)]
		}
		s := newSpace()
		s.Map(testBase, make([]byte, FrameSize), ProtWrite)
		shadow := map[int]byte{}
		for i, o := range offs {
			off := int(o) % FrameSize
			if err := s.WriteU8(testBase+Addr(off), vals[i]); err != nil {
				return false
			}
			shadow[off] = vals[i]
		}
		for off, want := range shadow {
			got, err := s.ReadU8(testBase + Addr(off))
			if err != nil || got != want {
				return false
			}
		}
		return s.Accesses() == int64(len(offs)+len(shadow))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Every check of the checked path still applies now that resolve serves
// hits itself: each case runs on a space whose frame 0 is mapped
// read-only, frame 1 is unmapped, and a fault handler (when set) counts
// its dispatches.
func TestHitPathKeepsEveryCheck(t *testing.T) {
	upgrade := func(s *Space) FaultHandler {
		return func(a Addr, _ Access) error { return s.Protect(a.FrameBase(), ProtWrite) }
	}
	cases := []struct {
		name       string
		handler    func(s *Space) FaultHandler // nil: no handler installed
		access     func(s *Space) error
		want       error // nil: the access succeeds
		dispatches int
	}{
		{"below base", nil, func(s *Space) error { _, err := s.ReadU64(testBase - 8); return err }, ErrOutOfRange, 0},
		{"beyond last frame", nil, func(s *Space) error { _, err := s.ReadU8(testBase + 64*FrameSize); return err }, ErrOutOfRange, 0},
		{"crosses frame", nil, func(s *Space) error { _, err := s.ReadU64(testBase + FrameSize - 4); return err }, ErrCrossesFrame, 0},
		{"unmapped, no handler", nil, func(s *Space) error { _, err := s.ReadU8(testBase + FrameSize); return err }, ErrNoHandler, 0},
		{"write to read-only, no handler", nil, func(s *Space) error { return s.WriteU64(testBase, 1) }, ErrNoHandler, 0},
		{"handler leaves fault", func(*Space) FaultHandler { return func(Addr, Access) error { return nil } },
			func(s *Space) error { return s.WriteU32(testBase, 1) }, ErrStillFaulted, 1},
		{"access inside handler", func(s *Space) FaultHandler {
			return func(Addr, Access) error { _, err := s.ReadU8(testBase + FrameSize); return err }
		}, func(s *Space) error { return s.WriteU8(testBase, 1) }, ErrRecursive, 1},
		{"write to read-only dispatches once", upgrade, func(s *Space) error {
			for i := 0; i < 3; i++ {
				if err := s.WriteU64(testBase+8, 7); err != nil {
					return err
				}
			}
			return nil
		}, nil, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newSpace()
			s.Map(testBase, make([]byte, FrameSize), ProtRead)
			calls := 0
			if tc.handler != nil {
				h := tc.handler(s)
				s.SetHandler(func(a Addr, acc Access) error { calls++; return h(a, acc) })
			}
			if err := tc.access(s); !errors.Is(err, tc.want) || (tc.want == nil) != (err == nil) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			if calls != tc.dispatches || s.Faults() != int64(tc.dispatches) {
				t.Fatalf("handler ran %d times, Faults() = %d, want %d", calls, s.Faults(), tc.dispatches)
			}
		})
	}
}

// A fixed mix of hits, faults and rejected accesses yields the same
// Accesses()/Faults() counts as the single checked path did: accesses
// count every in-range, in-frame load or store, faulting or not.
func TestAccessAndFaultCounts(t *testing.T) {
	s := newSpace()
	s.SetHandler(func(a Addr, acc Access) error {
		prot := ProtRead
		if acc == AccessWrite {
			prot = ProtWrite
		}
		return s.Map(a.FrameBase(), make([]byte, FrameSize), prot)
	})
	for i := Addr(0); i < 4; i++ {
		s.ReadU64(testBase + i*FrameSize)                 // unmapped: fault, then served
		s.ReadU32(testBase + i*FrameSize + 8)             // hit
		s.WriteU16(testBase+i*FrameSize+2, 9)             // read-only: fault, then write-mapped
		s.WriteU8(testBase+i*FrameSize, 1)                // hit
		s.ReadU64(testBase + i*FrameSize + FrameSize - 4) // crosses: not counted
	}
	s.ReadU8(testBase - 1) // out of range: not counted
	if s.Accesses() != 16 || s.Faults() != 8 {
		t.Fatalf("Accesses() = %d, Faults() = %d, want 16 and 8", s.Accesses(), s.Faults())
	}
}

// A warm load and its cost charge allocate nothing.
func TestWarmLoadAllocatesNothing(t *testing.T) {
	clock := sim.NewClock(sim.DefaultCostModel())
	s := NewSpace(testBase, 4, clock)
	s.Map(testBase, make([]byte, FrameSize), ProtRead)
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := s.ReadU64(testBase + 64); err != nil {
			t.Fatal(err)
		}
		clock.Charge(sim.CtrDeref, 1)
	})
	if allocs != 0 {
		t.Fatalf("warm ReadU64 + Charge allocates %v per call", allocs)
	}
}

// refSpace is the reference model for TestSpaceMatchesFlatModel: the
// eager flat-array space, one entry per reserved frame.
type refSpace struct {
	prot             []Prot
	data             [][]byte
	mapped           int // frames with non-nil data
	faults, accesses int64
}

// set maps (or, with nil data, unmaps) frame i.
func (m *refSpace) set(i int, data []byte, prot Prot) {
	switch {
	case m.data[i] == nil && data != nil:
		m.mapped++
	case m.data[i] != nil && data == nil:
		m.mapped--
	}
	m.data[i], m.prot[i] = data, prot
}

// refOutcome is what the model predicts for one access.
type refOutcome struct {
	err error // nil, ErrOutOfRange, ErrNoHandler, ErrStillFaulted or errHandler
	val byte
}

var errHandler = errors.New("handler failed")

// Handler behaviours the model test installs.
const (
	noHandler = iota
	fixHandler
	noopHandler
	failHandler
	numHandlers
)

// access predicts an n=1 access to frame i at offset off. A fix handler
// maps fix (with the access's protection); the caller makes the real
// handler do the same.
func (m *refSpace) access(i, off int, acc Access, v byte, handler int, fix []byte) refOutcome {
	if i < 0 || i >= len(m.prot) {
		return refOutcome{err: ErrOutOfRange}
	}
	m.accesses++
	if m.data[i] == nil || !m.prot[i].allows(acc) {
		if handler == noHandler {
			return refOutcome{err: ErrNoHandler}
		}
		m.faults++
		switch handler {
		case failHandler:
			return refOutcome{err: errHandler}
		case fixHandler:
			prot := ProtRead
			if acc == AccessWrite {
				prot = ProtWrite
			}
			m.set(i, fix, prot)
		}
		if m.data[i] == nil || !m.prot[i].allows(acc) {
			return refOutcome{err: ErrStillFaulted}
		}
	}
	if acc == AccessWrite {
		m.data[i][off] = v
		return refOutcome{}
	}
	return refOutcome{val: m.data[i][off]}
}

// errClass maps an error to the sentinel the model predicts.
func errClass(err error) error {
	for _, c := range []error{ErrOutOfRange, ErrNoHandler, ErrStillFaulted, ErrCrossesFrame, ErrRecursive, errHandler} {
		if errors.Is(err, c) {
			return c
		}
	}
	return err
}

// sameBacking reports whether two backing slices are the same frame.
func sameBacking(a, b []byte) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return &a[0] == &b[0]
}

// checkMappedList verifies the dense mapped-frame list against the table.
func checkMappedList(t *testing.T, s *Space, m *refSpace) {
	t.Helper()
	if len(s.mapped) != m.mapped || s.MappedFrames() != m.mapped {
		t.Fatalf("mapped list holds %d frames, model %d", len(s.mapped), m.mapped)
	}
	if len(s.frames) > s.maxFrames {
		t.Fatalf("frame table %d entries, space reserves %d", len(s.frames), s.maxFrames)
	}
	for k, i := range s.mapped {
		if f := s.frames[i]; f.data == nil || int(f.pos) != k {
			t.Fatalf("mapped[%d] = frame %d with pos %d, data nil %v", k, i, f.pos, f.data == nil)
		}
	}
}

// TestSpaceMatchesFlatModel runs seeded random sequences of every Space
// operation against the eager flat-array model and requires each step to
// agree on protection, backing, error class and the fault and access
// counts. Frame indices cluster at 0, small values, far values, the last
// frame and one past it, so swap-removes and the not-yet-grown part of the
// table are both exercised.
func TestSpaceMatchesFlatModel(t *testing.T) {
	const maxFrames = 1 << 14
	for seed := int64(1); seed <= 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewSpace(testBase, maxFrames, nil)
		m := &refSpace{prot: make([]Prot, maxFrames), data: make([][]byte, maxFrames)}
		far := []int{maxFrames / 3, maxFrames/2 + 17, maxFrames - 100}
		pick := func() int {
			switch r := rng.Intn(10); {
			case r < 3:
				return rng.Intn(8)
			case r < 5:
				return far[rng.Intn(len(far))] + rng.Intn(4)
			case r < 6:
				return maxFrames - 1
			case r < 7:
				return maxFrames
			case r < 8:
				return -1 // below base
			default:
				return rng.Intn(maxFrames)
			}
		}
		addr := func(i int) Addr { return testBase + Addr(int64(i)*FrameSize) }
		inRange := func(i int) bool { return i >= 0 && i < maxFrames }
		// rangeOK: err is nil in range and ErrOutOfRange outside it.
		rangeOK := func(err error, i int) bool {
			if inRange(i) {
				return err == nil
			}
			return errClass(err) == ErrOutOfRange
		}
		for step := 0; step < 3000; step++ {
			i := pick()
			where := func(op string) string { return fmt.Sprintf("seed %d step %d: %s frame %d", seed, step, op, i) }
			switch op := rng.Intn(8); op {
			case 0: // Map or remap
				buf := make([]byte, FrameSize)
				prot := Prot(rng.Intn(3))
				err := s.Map(addr(i), buf, prot)
				if inRange(i) {
					m.set(i, buf, prot)
				}
				if !rangeOK(err, i) {
					t.Fatalf("%s: err %v", where("Map"), err)
				}
			case 1: // Unmap, mapped or not
				err := s.Unmap(addr(i))
				if inRange(i) {
					m.set(i, nil, ProtNone)
				}
				if !rangeOK(err, i) {
					t.Fatalf("%s: err %v", where("Unmap"), err)
				}
			case 2:
				prot := Prot(rng.Intn(3))
				err := s.Protect(addr(i), prot)
				if inRange(i) {
					m.prot[i] = prot
				}
				if !rangeOK(err, i) {
					t.Fatalf("%s: err %v", where("Protect"), err)
				}
			case 3:
				if rng.Intn(4) == 0 {
					prot := Prot(rng.Intn(3))
					s.ProtectAll(prot)
					for j := range m.prot {
						if m.data[j] != nil {
							m.prot[j] = prot
						}
					}
				}
			case 4, 5: // ReadU8 / WriteU8 under a random handler
				acc := Access(op - 4)
				off, v := rng.Intn(FrameSize), byte(rng.Intn(256))
				handler := rng.Intn(numHandlers)
				fix := make([]byte, FrameSize)
				switch handler {
				case noHandler:
					s.SetHandler(nil)
				case fixHandler:
					s.SetHandler(func(a Addr, acc Access) error {
						prot := ProtRead
						if acc == AccessWrite {
							prot = ProtWrite
						}
						return s.Map(a.FrameBase(), fix, prot)
					})
				case noopHandler:
					s.SetHandler(func(Addr, Access) error { return nil })
				case failHandler:
					s.SetHandler(func(Addr, Access) error { return errHandler })
				}
				want := m.access(i, off, acc, v, handler, fix)
				var got refOutcome
				if acc == AccessWrite {
					got.err = s.WriteU8(addr(i)+Addr(off), v)
				} else {
					got.val, got.err = s.ReadU8(addr(i) + Addr(off))
				}
				if errClass(got.err) != want.err || got.val != want.val {
					t.Fatalf("%s: %v got (%d, %v), want (%d, %v)", where("access"), acc, got.val, got.err, want.val, want.err)
				}
			case 6, 7: // ProtOf and Mapped
				p, perr := s.ProtOf(addr(i))
				d, derr := s.Mapped(addr(i))
				if !rangeOK(perr, i) || !rangeOK(derr, i) {
					t.Fatalf("%s: errs %v, %v", where("ProtOf/Mapped"), perr, derr)
				}
				if inRange(i) && (p != m.prot[i] || !sameBacking(d, m.data[i])) {
					t.Fatalf("%s: prot %v (model %v), backing match %v",
						where("ProtOf/Mapped"), p, m.prot[i], sameBacking(d, m.data[i]))
				}
			}
			if s.Faults() != m.faults || s.Accesses() != m.accesses {
				t.Fatalf("%s: Faults/Accesses %d/%d, model %d/%d", where("counts"), s.Faults(), s.Accesses(), m.faults, m.accesses)
			}
			checkMappedList(t, s, m)
		}
		for i := 0; i <= maxFrames; i++ {
			p, _ := s.ProtOf(addr(i))
			d, err := s.Mapped(addr(i))
			if !inRange(i) {
				if errClass(err) != ErrOutOfRange {
					t.Fatalf("seed %d: frame %d: err %v, want ErrOutOfRange", seed, i, err)
				}
				continue
			}
			if p != m.prot[i] || !sameBacking(d, m.data[i]) {
				t.Fatalf("seed %d: final frame %d: prot %v (model %v), backing match %v", seed, i, p, m.prot[i], sameBacking(d, m.data[i]))
			}
		}
	}
}

// The frame table grows on demand, so reserving the default 8 GB space
// allocates only the Space itself.
func TestNewSpaceAllocatesOnlyBookkeeping(t *testing.T) {
	const maxFrames = 1 << 20 // core.DefaultMaxFrames
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := NewSpace(testBase, maxFrames, nil)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	if n := after.TotalAlloc - before.TotalAlloc; n > 4096 {
		t.Fatalf("NewSpace over %d frames allocated %d bytes, want <= 4096", maxFrames, n)
	}
	if s.MaxFrames() != maxFrames {
		t.Fatalf("MaxFrames() = %d", s.MaxFrames())
	}
}

// The mapped-list position lives in the frame's padding.
func TestFrameStays32Bytes(t *testing.T) {
	if n := unsafe.Sizeof(frame{}); unsafe.Sizeof(uintptr(0)) == 8 && n != 32 {
		t.Fatalf("frame is %d bytes, want 32", n)
	}
}

// BenchmarkProtectAll reprotects a default-sized (1<<20-frame) space with
// 192 frames mapped across it — the oo7-cold client pool's worth.
func BenchmarkProtectAll(b *testing.B) {
	const maxFrames, mapped = 1 << 20, 192
	s := NewSpace(testBase, maxFrames, nil)
	for k := 0; k < mapped; k++ {
		a := testBase + Addr(k*(maxFrames/mapped))*FrameSize
		if err := s.Map(a, make([]byte, FrameSize), ProtRead); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ProtectAll(Prot(i & 1))
	}
}
