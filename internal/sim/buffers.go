package sim

import "math/bits"

// Buffers is a free-list pool for the byte slices that carry wire frames
// between devices. One pool lives on each partition's scheduler (see
// Kernel.Buffers) so a frame obtained by a NIC can be released by the
// switch that consumed it. Buffers are sorted into power-of-two size
// classes; Get hands out a zeroed slice of the exact requested length
// backed by a class-sized array, and Put accepts only slices whose
// capacity is a class size (so foreign slices are simply dropped, never
// mis-pooled). Each class keeps at most bufClassFreeBytes of free
// buffers; Put leaves the excess to the garbage collector, so a one-way
// flow between partitions cannot grow the receiving pool without bound.
//
// The pool is a pure recycling optimization: it has no effect on event
// order, and because Get zeroes the slice a recycled buffer is
// indistinguishable from a fresh make([]byte, n). Clone skips that
// zero-fill: its copy writes every byte anyway.
type Buffers struct {
	classes [bufClasses][][]byte
	zeroed  uint64 // bytes Get cleared in recycled buffers
}

const (
	bufMinShift = 6 // smallest class: 64 B, below typical frame size
	bufMaxShift = 22
	bufClasses  = bufMaxShift - bufMinShift + 1
	// bufClassFreeBytes bounds the free bytes a class holds: one buffer of
	// the largest class, 65536 of the smallest. The deepest free list any
	// benchmark workload reaches is under 300 buffers.
	bufClassFreeBytes = 1 << bufMaxShift
)

// bufClass returns the class index for a request of n bytes, or -1 when
// n exceeds the largest class.
func bufClass(n int) int {
	if n <= 1<<bufMinShift {
		return 0
	}
	c := bits.Len(uint(n-1)) - bufMinShift
	if c >= bufClasses {
		return -1
	}
	return c
}

// Get returns a zeroed slice of length n.
func (b *Buffers) Get(n int) []byte {
	buf, recycled := b.get(n)
	if recycled {
		clear(buf)
		b.zeroed += uint64(n)
	}
	return buf
}

// Clone returns a pooled copy of src. The copy writes every byte, so
// unlike Get it does not zero a recycled buffer first.
func (b *Buffers) Clone(src []byte) []byte {
	buf, _ := b.get(len(src))
	copy(buf, src)
	return buf
}

// ZeroedBytes returns how many bytes Get has cleared in recycled
// buffers (fresh ones come zeroed from the allocator).
func (b *Buffers) ZeroedBytes() uint64 { return b.zeroed }

// get returns a slice of length n and whether it is a recycled buffer,
// whose bytes are whatever its previous holder left.
func (b *Buffers) get(n int) ([]byte, bool) {
	if n < 0 {
		panic("sim: Buffers.Get with negative length")
	}
	c := bufClass(n)
	if c < 0 {
		return make([]byte, n), false // oversize: fall back to the allocator
	}
	list := b.classes[c]
	if m := len(list); m > 0 {
		buf := list[m-1]
		list[m-1] = nil
		b.classes[c] = list[:m-1]
		return buf[:n], true
	}
	return make([]byte, n, 1<<(c+bufMinShift)), false
}

// Put recycles a slice previously returned by Get. Slices whose capacity
// is not a class size, and slices arriving at a full class, are ignored,
// so it is always safe to call.
func (b *Buffers) Put(buf []byte) {
	c := cap(buf)
	if c == 0 || c&(c-1) != 0 || c < 1<<bufMinShift || c > 1<<bufMaxShift {
		return
	}
	cls := bits.Len(uint(c)) - 1 - bufMinShift
	if len(b.classes[cls]) >= bufClassFreeBytes>>(cls+bufMinShift) {
		return
	}
	b.classes[cls] = append(b.classes[cls], buf[:0])
}
