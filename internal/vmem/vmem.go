// Package vmem simulates the virtual-memory hardware QuickStore is built
// on: an address space divided into 8K-byte frames, per-frame access
// protections, and a fault handler invoked on protection violations —
// the portable-Go stand-in for mmap/mprotect plus SIGSEGV delivery
// (see DESIGN.md, Substitutions).
//
// A frame can be mapped to a byte slice (in practice, a client buffer-pool
// frame), mirroring how QuickStore maps virtual frames onto ESM buffer
// frames (Figure 1 of the paper). Every persistent load or store issued by
// the application goes through a Space; when the target frame lacks the
// required permission, the registered fault handler runs — exactly where
// the MMU would trap — and the access is retried once.
//
// The Space never allocates backing memory of its own: like the paper's
// mmap file trick (Section 3.2), reserving a huge address range costs only
// bookkeeping, and that bookkeeping tracks what is mapped, not what is
// reserved. The frame table grows on demand (doubling, up to the reserved
// size) as frames are first mapped or protected, so a fresh space allocates
// nothing; a frame beyond the grown table is reserved but unmapped and
// faults like any other. The space also keeps a dense list of its mapped
// frames, so ProtectAll — the simplified clock's one-call reprotection of
// the whole space (Section 3.5) — costs O(mapped frames).
package vmem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"quickstore/internal/sim"
)

// FrameShift and FrameSize fix the 8K frame geometry shared with disk pages.
const (
	FrameShift = 13
	FrameSize  = 1 << FrameShift
	offMask    = FrameSize - 1
)

// Addr is a simulated virtual address.
type Addr uint64

// FrameBase returns the base address of the frame containing a.
func (a Addr) FrameBase() Addr { return a &^ offMask }

// Offset returns a's offset within its frame.
func (a Addr) Offset() int { return int(a & offMask) }

// Prot is a frame protection level. ProtWrite implies read permission,
// matching the paper's read/write/none flags.
type Prot uint8

// Protection levels.
const (
	ProtNone Prot = iota
	ProtRead
	ProtWrite
)

// String names the protection level.
func (p Prot) String() string {
	switch p {
	case ProtNone:
		return "none"
	case ProtRead:
		return "read"
	case ProtWrite:
		return "write"
	}
	return fmt.Sprintf("Prot(%d)", uint8(p))
}

// Access is the kind of memory access being attempted.
type Access uint8

// Access kinds.
const (
	AccessRead Access = iota
	AccessWrite
)

// String names the access kind.
func (a Access) String() string {
	if a == AccessWrite {
		return "write"
	}
	return "read"
}

// allows reports whether protection p admits access a.
func (p Prot) allows(a Access) bool {
	if a == AccessWrite {
		return p == ProtWrite
	}
	return p >= ProtRead
}

// FaultHandler services a protection violation at addr. If it returns nil,
// the faulting access is retried once; a second violation is an error
// (a wild pointer — the dangling-reference behaviour of Section 4.5.2 is
// the application's problem, not the hardware's).
type FaultHandler func(addr Addr, access Access) error

// Errors reported by the space.
var (
	ErrOutOfRange   = errors.New("vmem: address outside the space")
	ErrNoHandler    = errors.New("vmem: protection violation with no fault handler")
	ErrStillFaulted = errors.New("vmem: access still forbidden after fault handling")
	ErrCrossesFrame = errors.New("vmem: access crosses a frame boundary")
	ErrRecursive    = errors.New("vmem: recursive fault")
)

type frame struct {
	prot Prot
	pos  int32  // index in Space.mapped while data != nil (fits the padding)
	data []byte // nil when the frame is reserved but unmapped
}

// Space is one process's simulated persistent address region.
type Space struct {
	base      Addr
	maxFrames int
	frames    []frame // grown on demand; frames beyond it are unmapped
	mapped    []int32 // indices of the frames whose data is non-nil
	handler   FaultHandler
	clock     *sim.Clock
	inFault   bool
	faults    int64
	accesses  int64
}

// NewSpace creates a space covering maxFrames frames starting at base
// (base must be frame-aligned). It reserves the range without allocating
// a frame table; see the package doc.
func NewSpace(base Addr, maxFrames int, clock *sim.Clock) *Space {
	if base&offMask != 0 {
		panic("vmem: unaligned base")
	}
	if maxFrames < 0 || maxFrames > math.MaxInt32 {
		panic("vmem: frame count out of range")
	}
	if clock == nil {
		clock = sim.NewClock(sim.CostModel{})
	}
	return &Space{base: base, maxFrames: maxFrames, clock: clock}
}

// Base returns the first address of the space.
func (s *Space) Base() Addr { return s.base }

// MaxFrames returns the number of frames the space covers.
func (s *Space) MaxFrames() int { return s.maxFrames }

// MappedFrames returns the number of frames currently mapped.
func (s *Space) MappedFrames() int { return len(s.mapped) }

// SetHandler installs the page-fault handler.
func (s *Space) SetHandler(h FaultHandler) { s.handler = h }

// Faults returns the number of protection violations dispatched.
func (s *Space) Faults() int64 { return s.faults }

// Accesses returns the number of loads/stores issued through the space.
func (s *Space) Accesses() int64 { return s.accesses }

func (s *Space) frameIndex(a Addr) (int, error) {
	if a < s.base {
		return 0, fmt.Errorf("%w: %#x < base %#x", ErrOutOfRange, a, s.base)
	}
	i := (a - s.base) >> FrameShift
	if i >= Addr(s.maxFrames) {
		return 0, fmt.Errorf("%w: %#x beyond %d frames", ErrOutOfRange, a, s.maxFrames)
	}
	return int(i), nil
}

// at returns frame i, which must be in range; a frame beyond the grown
// table is unmapped with no protection.
func (s *Space) at(i int) frame {
	if i < len(s.frames) {
		return s.frames[i]
	}
	return frame{}
}

// grow extends the frame table to cover frame i (which must be in range),
// at least doubling it and never past maxFrames.
func (s *Space) grow(i int) {
	if i < len(s.frames) {
		return
	}
	n := max(2*len(s.frames), minFrames, i+1)
	t := make([]frame, min(n, s.maxFrames))
	copy(t, s.frames)
	s.frames = t
}

// minFrames is the frame table's first size.
const minFrames = 64

// Contains reports whether a falls inside the space.
func (s *Space) Contains(a Addr) bool {
	_, err := s.frameIndex(a)
	return err == nil
}

// Map binds the frame at frameAddr to data (one page of backing store,
// typically a buffer-pool frame) with the given protection. This is the
// simulated mmap: the same virtual frame may be remapped to different
// buffer frames over time (Figure 1's dynamic physical mapping).
func (s *Space) Map(frameAddr Addr, data []byte, prot Prot) error {
	if frameAddr&offMask != 0 {
		return fmt.Errorf("vmem: Map of unaligned address %#x", frameAddr)
	}
	if len(data) != FrameSize {
		return fmt.Errorf("vmem: Map with %d-byte backing", len(data))
	}
	i, err := s.frameIndex(frameAddr)
	if err != nil {
		return err
	}
	s.grow(i)
	f := &s.frames[i]
	if f.data == nil {
		f.pos = int32(len(s.mapped))
		s.mapped = append(s.mapped, int32(i))
	}
	f.prot, f.data = prot, data
	return nil
}

// Unmap removes the frame's backing store and protection.
func (s *Space) Unmap(frameAddr Addr) error {
	i, err := s.frameIndex(frameAddr)
	if err != nil || i >= len(s.frames) {
		return err
	}
	f := &s.frames[i]
	if f.data != nil {
		// Swap-remove i from the mapped list.
		last := s.mapped[len(s.mapped)-1]
		s.mapped[f.pos] = last
		s.frames[last].pos = f.pos
		s.mapped = s.mapped[:len(s.mapped)-1]
	}
	*f = frame{}
	return nil
}

// Protect changes the frame's protection without touching its mapping.
func (s *Space) Protect(frameAddr Addr, prot Prot) error {
	i, err := s.frameIndex(frameAddr)
	if err != nil {
		return err
	}
	s.grow(i)
	s.frames[i].prot = prot
	return nil
}

// ProtOf returns the frame's current protection.
func (s *Space) ProtOf(frameAddr Addr) (Prot, error) {
	i, err := s.frameIndex(frameAddr)
	if err != nil {
		return ProtNone, err
	}
	return s.at(i).prot, nil
}

// Mapped returns the frame's backing slice (nil when unmapped), regardless
// of protection. The fault handler uses this; applications do not.
func (s *Space) Mapped(frameAddr Addr) ([]byte, error) {
	i, err := s.frameIndex(frameAddr)
	if err != nil {
		return nil, err
	}
	return s.at(i).data, nil
}

// ProtectAll sets every mapped frame's protection to prot in one operation —
// the single mmap call QuickStore's simplified clock uses to reprotect the
// whole persistent address space when a sweep finds no victim (Section 3.5).
// It visits only the mapped frames.
func (s *Space) ProtectAll(prot Prot) {
	for _, i := range s.mapped {
		s.frames[i].prot = prot
	}
}

// resolve returns the backing bytes for an n-byte access at a. Its hit
// path — an in-range access within one mapped, permitted frame — makes no
// call: it counts the access and returns the slice. Every other case,
// errors and faults, goes to resolveSlow. The fixed-size accessors below
// are shaped to fit the compiler's inlining budget, so a warm load or
// store costs the caller one call, into resolve.
func (s *Space) resolve(a Addr, n int, acc Access) ([]byte, error) {
	if off := a.Offset(); a >= s.base && off+n <= FrameSize {
		if i := uint64(a-s.base) >> FrameShift; i < uint64(len(s.frames)) {
			if f := &s.frames[i]; f.data != nil && f.prot.allows(acc) {
				s.accesses++
				return f.data[off : off+n], nil
			}
		}
	}
	return s.resolveSlow(a, n, acc)
}

// resolveSlow is resolve's checked path: it reports out-of-range and
// frame-crossing accesses and dispatches the fault handler when protection
// forbids the access.
func (s *Space) resolveSlow(a Addr, n int, acc Access) ([]byte, error) {
	off := a.Offset()
	if off+n > FrameSize {
		return nil, fmt.Errorf("%w: %#x+%d", ErrCrossesFrame, a, n)
	}
	i, err := s.frameIndex(a)
	if err != nil {
		return nil, err
	}
	s.accesses++
	f := s.at(i)
	if !f.prot.allows(acc) || f.data == nil {
		if s.handler == nil {
			return nil, fmt.Errorf("%w: %v at %#x", ErrNoHandler, acc, a)
		}
		if s.inFault {
			return nil, fmt.Errorf("%w: %v at %#x", ErrRecursive, acc, a)
		}
		s.faults++
		s.clock.Charge(sim.CtrPageFaultTrap, 1)
		s.inFault = true
		err := s.handler(a, acc)
		s.inFault = false
		if err != nil {
			return nil, err
		}
		f = s.at(i)
		if !f.prot.allows(acc) || f.data == nil {
			return nil, fmt.Errorf("%w: %v at %#x (prot %v)", ErrStillFaulted, acc, a, f.prot)
		}
	}
	return f.data[off : off+n], nil
}

// ReadU8 loads one byte.
func (s *Space) ReadU8(a Addr) (v byte, err error) {
	b, err := s.resolve(a, 1, AccessRead)
	if err == nil {
		v = b[0]
	}
	return v, err
}

// ReadU16 loads a little-endian uint16.
func (s *Space) ReadU16(a Addr) (v uint16, err error) {
	b, err := s.resolve(a, 2, AccessRead)
	if err == nil {
		v = binary.LittleEndian.Uint16(b)
	}
	return v, err
}

// ReadU32 loads a little-endian uint32.
func (s *Space) ReadU32(a Addr) (v uint32, err error) {
	b, err := s.resolve(a, 4, AccessRead)
	if err == nil {
		v = binary.LittleEndian.Uint32(b)
	}
	return v, err
}

// ReadU64 loads a little-endian uint64 (the pointer load of Figure 4).
func (s *Space) ReadU64(a Addr) (v uint64, err error) {
	b, err := s.resolve(a, 8, AccessRead)
	if err == nil {
		v = binary.LittleEndian.Uint64(b)
	}
	return v, err
}

// ReadInto copies len(buf) bytes from a.
func (s *Space) ReadInto(a Addr, buf []byte) error {
	b, err := s.resolve(a, len(buf), AccessRead)
	if err != nil {
		return err
	}
	copy(buf, b)
	return nil
}

// WriteU8 stores one byte.
func (s *Space) WriteU8(a Addr, v byte) error {
	b, err := s.resolve(a, 1, AccessWrite)
	if err == nil {
		b[0] = v
	}
	return err
}

// WriteU16 stores a little-endian uint16.
func (s *Space) WriteU16(a Addr, v uint16) error {
	b, err := s.resolve(a, 2, AccessWrite)
	if err == nil {
		binary.LittleEndian.PutUint16(b, v)
	}
	return err
}

// WriteU32 stores a little-endian uint32.
func (s *Space) WriteU32(a Addr, v uint32) error {
	b, err := s.resolve(a, 4, AccessWrite)
	if err == nil {
		binary.LittleEndian.PutUint32(b, v)
	}
	return err
}

// WriteU64 stores a little-endian uint64 (a pointer store).
func (s *Space) WriteU64(a Addr, v uint64) error {
	b, err := s.resolve(a, 8, AccessWrite)
	if err == nil {
		binary.LittleEndian.PutUint64(b, v)
	}
	return err
}

// WriteBytes copies data to a.
func (s *Space) WriteBytes(a Addr, data []byte) error {
	b, err := s.resolve(a, len(data), AccessWrite)
	if err != nil {
		return err
	}
	copy(b, data)
	return nil
}
