package sim

import (
	"math/bits"
	"testing"
)

// TestBuffersSharedByPartition is the regression test for pools that
// were owned by the domain: a frame obtained on one domain and released
// on another never came back to its sender, so senders allocated every
// frame and receivers hoarded them. Two domains of one partition
// ping-pong frames of several sizes; the partition's pool must serve
// every Get from what the other side Put, and stay small.
func TestBuffersSharedByPartition(t *testing.T) {
	g := NewGroup(1, 3, 1, 300*Nanosecond)
	a, b := g.Kernel(1), g.Kernel(2)
	if a.Buffers() != b.Buffers() {
		t.Fatal("two domains of one partition hold different pools")
	}
	sizes := []int{64, 120, 1100, 4200}
	rounds := 0
	var deliver func(any, []byte)
	deliver = func(arg any, frame []byte) {
		at := arg.(*Kernel) // the domain the frame arrived on
		at.Buffers().Put(frame)
		rounds++
		peer := a
		if at == a {
			peer = b
		}
		at.SendTo(peer, at.Now()+g.Lookahead(), deliver, peer, at.Buffers().Get(sizes[rounds%len(sizes)]))
	}
	for _, n := range sizes {
		a.SendTo(b, g.Lookahead(), deliver, b, a.Buffers().Get(n))
	}
	runRounds := func(n int) {
		for want := rounds + n; rounds < want; {
			g.RunFor(100 * Microsecond)
		}
	}
	runRounds(1000) // warm the pool and the event free list
	if allocs := testing.AllocsPerRun(10, func() { runRounds(10_000) }); allocs != 0 {
		t.Errorf("%v allocs per 10k ping-pong rounds, want 0", allocs)
	}
	for cls, list := range a.Buffers().classes {
		if limit := bufClassFreeBytes / bufClassSize(cls); len(list) > limit || len(list) > len(sizes) {
			t.Errorf("class %d holds %d free buffers with %d frames in flight (cap %d)", cls, len(list), len(sizes), limit)
		}
	}
}

// TestBuffersClassCap: a one-way flow (the receiving side of a
// cross-partition link) must not grow a free list past its byte cap.
func TestBuffersClassCap(t *testing.T) {
	var pool Buffers
	for _, size := range []int{64, 4096, 4608, bufClassFreeBytes, 1 << bufMaxShift} {
		limit := bufClassFreeBytes / bufClassSize(bufClass(size))
		for i := 0; i < limit+10; i++ {
			pool.Put(make([]byte, size))
		}
		if got := len(pool.classes[bufClass(size)]); got != limit {
			t.Errorf("%d B class holds %d free buffers after %d Puts, want the cap %d", size, got, limit+10, limit)
		}
	}
}

// TestBuffersClone: Clone is Get plus a full copy, without the
// zero-fill, so a recycled buffer holding an earlier frame's bytes must
// come back holding exactly the source's, and a warm pool serves it
// without allocating.
func TestBuffersClone(t *testing.T) {
	var pool Buffers
	for _, size := range []int{0, 1, 64, 65, 1100, 4129} {
		dirty := pool.Get(size)
		dirty = dirty[:cap(dirty)] // the whole class-sized array
		for i := range dirty {
			dirty[i] = 0xA5
		}
		pool.Put(dirty)
		src := make([]byte, size)
		for i := range src {
			src[i] = byte(i*7 + 1)
		}
		zeroed := pool.ZeroedBytes()
		got := pool.Clone(src)
		if pool.ZeroedBytes() != zeroed {
			t.Errorf("Clone(%d B) zero-filled %d bytes", size, pool.ZeroedBytes()-zeroed)
		}
		want := pool.Get(size)
		copy(want, src)
		if string(got) != string(want) || len(got) != size {
			t.Errorf("Clone(%d B) = %d bytes differing from Get+copy", size, len(got))
		}
		pool.Put(got)
		pool.Put(want)
	}
	src := make([]byte, 4129)
	pool.Put(pool.Clone(src))
	if allocs := testing.AllocsPerRun(100, func() { pool.Put(pool.Clone(src)) }); allocs != 0 {
		t.Errorf("warm Clone allocates %v objects, want 0", allocs)
	}
}

// TestBufferClassTable checks the size-class layout for every request
// up to the largest class: the class holds the request, wastes at most
// an eighth of it above 64 B, and is the smallest that holds it; class
// sizes strictly increase and map back to their own class; Put keeps
// exactly the capacities that are class sizes; and no doubling holds
// more than bufDoublingFreeBytes of free buffers.
func TestBufferClassTable(t *testing.T) {
	for n := 0; n <= 1<<bufMaxShift; n++ {
		c := bufClass(n)
		if c < 0 || c >= bufClasses {
			t.Fatalf("bufClass(%d) = %d, want a class in [0, %d)", n, c, bufClasses)
		}
		size := bufClassSize(c)
		if size < n {
			t.Fatalf("bufClass(%d) = %d of %d B, too small", n, c, size)
		}
		if n > 1<<bufMinShift && (size-n)*8 > n {
			t.Fatalf("bufClass(%d) = %d of %d B wastes more than an eighth", n, c, size)
		}
		if c > 0 && bufClassSize(c-1) >= n {
			t.Fatalf("bufClass(%d) = %d, but class %d (%d B) holds it", n, c, c-1, bufClassSize(c-1))
		}
	}
	if c := bufClass(1<<bufMaxShift + 1); c != -1 {
		t.Errorf("bufClass(4 MiB + 1) = %d, want -1 (oversize)", c)
	}
	if got := bufClassSize(bufClasses - 1); got != 1<<bufMaxShift {
		t.Errorf("largest class is %d B, want %d", got, 1<<bufMaxShift)
	}
	for c := 0; c < bufClasses; c++ {
		if got := bufClass(bufClassSize(c)); got != c {
			t.Errorf("bufClass(bufClassSize(%d) = %d) = %d", c, bufClassSize(c), got)
		}
		if c > 0 && bufClassSize(c) <= bufClassSize(c-1) {
			t.Errorf("class %d (%d B) does not exceed class %d (%d B)", c, bufClassSize(c), c-1, bufClassSize(c-1))
		}
	}

	// Put keeps a class size and drops its neighbours. The pool only
	// stores the slices, so one backing array serves every capacity.
	backing := make([]byte, 1<<bufMaxShift+1)
	pooled := func(pool *Buffers) (n int) {
		for _, list := range pool.classes {
			n += len(list)
		}
		return n
	}
	for c := 0; c < bufClasses; c++ {
		size := bufClassSize(c)
		for _, capacity := range []int{size - 1, size, size + 1} {
			var pool Buffers
			pool.Put(backing[:0:capacity])
			want := 0
			if capacity == size && size <= bufClassFreeBytes {
				want = 1
			}
			if got := pooled(&pool); got != want {
				t.Errorf("Put of capacity %d (class %d is %d B) pooled %d buffers, want %d", capacity, c, size, got, want)
			}
		}
	}
	for _, capacity := range []int{0, 1, 63, 65, 100, 4129, 8191} {
		var pool Buffers
		pool.Put(backing[:0:capacity])
		if got := pooled(&pool); got != 0 {
			t.Errorf("Put of capacity %d pooled %d buffers, want 0", capacity, got)
		}
	}

	// Fill every class past its cap; the free bytes of each doubling
	// (and of the lone 64 B class below the first) stay within bound.
	var pool Buffers
	for c := 0; c < bufClasses; c++ {
		size := bufClassSize(c)
		for i := 0; i <= bufClassFreeBytes/size+2; i++ {
			pool.Put(backing[:0:size])
		}
	}
	var doubling [bufMaxShift - bufMinShift + 1]int
	for c, list := range pool.classes {
		d := 0 // class 0; doubling d > 0 spans (2^(5+d), 2^(6+d)] B
		if c > 0 {
			d = bits.Len(uint(bufClassSize(c)-1)) - bufMinShift
		}
		doubling[d] += len(list) * bufClassSize(c)
	}
	for d, bytes := range doubling {
		if bytes > bufDoublingFreeBytes {
			t.Errorf("doubling %d holds %d free bytes, want at most %d", d, bytes, bufDoublingFreeBytes)
		}
	}
}

// TestBuffersGetUnzeroed: GetUnzeroed is Get without the zero-fill. It
// returns the requested length in a class-sized array, clears nothing,
// and a warm pool serves it without allocating.
func TestBuffersGetUnzeroed(t *testing.T) {
	var pool Buffers
	for _, size := range []int{0, 1, 64, 65, 1070, 4129} {
		pool.Put(pool.Get(size))
		zeroed := pool.ZeroedBytes()
		buf := pool.GetUnzeroed(size)
		if len(buf) != size || cap(buf) != bufClassSize(bufClass(size)) {
			t.Errorf("GetUnzeroed(%d) = len %d cap %d, want len %d cap %d",
				size, len(buf), cap(buf), size, bufClassSize(bufClass(size)))
		}
		if pool.ZeroedBytes() != zeroed {
			t.Errorf("GetUnzeroed(%d B) zero-filled %d bytes", size, pool.ZeroedBytes()-zeroed)
		}
		pool.Put(buf)
	}
	if allocs := testing.AllocsPerRun(100, func() { pool.Put(pool.GetUnzeroed(4129)) }); allocs != 0 {
		t.Errorf("warm GetUnzeroed allocates %v objects, want 0", allocs)
	}
}
