package sim

import "math/bits"

// Buffers is a free-list pool for the byte slices that carry wire frames
// between devices. One pool lives on each partition's scheduler (see
// Kernel.Buffers) so a frame obtained by a NIC can be released by the
// switch that consumed it. Buffers are sorted into size classes, eight
// per doubling from 64 B to 4 MiB (64, 72, 80, …, 128, 144, …, 4096,
// 4608, …), so a class-sized array backing a request above 64 B wastes
// at most an eighth of it: a 4 129-byte Mu entry takes a 4 608-byte
// array. Get hands out a zeroed slice of the exact requested length
// backed by a class-sized array, and Put accepts only slices whose
// capacity is a class size (so foreign slices are simply dropped, never
// mis-pooled). Each doubling keeps at most bufDoublingFreeBytes of free
// buffers, split evenly across its eight classes; Put leaves the excess
// to the garbage collector, so a one-way flow between partitions cannot
// grow the receiving pool without bound.
//
// The pool is a pure recycling optimization: it has no effect on event
// order, and because Get zeroes the slice a recycled buffer is
// indistinguishable from a fresh make([]byte, n). GetUnzeroed and Clone
// skip that zero-fill, for callers that write every byte anyway.
type Buffers struct {
	classes [bufClasses][][]byte
	zeroed  uint64 // bytes Get cleared in recycled buffers
}

const (
	bufMinShift  = 6 // smallest class: 64 B, below typical frame size
	bufMaxShift  = 22
	bufStepShift = 3 // 1<<bufStepShift classes per doubling
	bufSteps     = 1 << bufStepShift
	// Class c holds buffers of (8 + c%8) << (3 + c/8) bytes, so the class
	// sizes are the numbers of at most four significant bits from 64 B
	// (class 0) to 4 MiB: 64, 72, …, 120, then 128, 144, ….
	bufClasses = (bufMaxShift-bufMinShift)<<bufStepShift + 1
	// bufDoublingFreeBytes bounds the free bytes one doubling holds; each
	// of its classes keeps at most an eighth of it (512 KiB), so classes
	// above 512 KiB keep none.
	bufDoublingFreeBytes = 1 << bufMaxShift
	bufClassFreeBytes    = bufDoublingFreeBytes >> bufStepShift
)

// bufClass returns the index of the smallest class that holds n bytes,
// or -1 when n exceeds the largest class. It takes shifts and masks
// only: every Get, GetUnzeroed and Clone calls it.
func bufClass(n int) int {
	if n <= 1<<bufMinShift {
		return 0
	}
	// Round n up to four significant bits: with 2^(e+3) <= n-1 < 2^(e+4),
	// n takes ((n-1)>>e) + 1 steps of 2^e, 9 to 16.
	m := uint(n - 1)
	e := bits.Len(m) - 1 - bufStepShift
	if c := bufClassAt(int(m>>e)+1, e); c < bufClasses {
		return c
	}
	return -1
}

// bufClassAt returns the class of buffers of steps<<e bytes, for steps
// from 8 to 16 (16<<e is 8<<(e+1), the next class).
func bufClassAt(steps, e int) int {
	return (e-(bufMinShift-bufStepShift))<<bufStepShift + steps - bufSteps
}

// bufClassSize returns the capacity of class c's buffers.
func bufClassSize(c int) int {
	return (bufSteps + c&(bufSteps-1)) << (bufMinShift - bufStepShift + c>>bufStepShift)
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

// GetUnzeroed returns a slice of length n whose bytes are whatever a
// previous holder left: it is Get without the zero-fill, for a caller
// that writes every byte before anything reads one.
func (b *Buffers) GetUnzeroed(n int) []byte {
	buf, _ := b.get(n)
	return buf
}

// Clone returns a pooled copy of src. The copy writes every byte, so
// unlike Get it does not zero a recycled buffer first.
func (b *Buffers) Clone(src []byte) []byte {
	buf := b.GetUnzeroed(len(src))
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
	return make([]byte, n, bufClassSize(c)), false
}

// Put recycles a slice previously returned by Get, GetUnzeroed or
// Clone. Slices whose capacity is not a class size, and slices arriving
// at a full class, are ignored, so it is always safe to call.
func (b *Buffers) Put(buf []byte) {
	size := cap(buf)
	if size < 1<<bufMinShift || size > 1<<bufMaxShift {
		return
	}
	e := bits.Len(uint(size)) - 1 - bufStepShift
	if size&(1<<e-1) != 0 {
		return // more than four significant bits: not a class size
	}
	c := bufClassAt(size>>e, e)
	if (len(b.classes[c])+1)*size > bufClassFreeBytes {
		return
	}
	b.classes[c] = append(b.classes[c], buf[:0])
}
