package sim

import "testing"

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
		if limit := bufClassFreeBytes >> (cls + bufMinShift); len(list) > limit || len(list) > len(sizes) {
			t.Errorf("class %d holds %d free buffers with %d frames in flight (cap %d)", cls, len(list), len(sizes), limit)
		}
	}
}

// TestBuffersClassCap: a one-way flow (the receiving side of a
// cross-partition link) must not grow a free list past its byte cap.
func TestBuffersClassCap(t *testing.T) {
	var pool Buffers
	for _, size := range []int{64, 4096, 1 << bufMaxShift} {
		limit := bufClassFreeBytes / size
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
