package sim

import (
	"math/rand"
	"testing"
)

// fifoDone is the reference single FIFO server, idle at 0: job n (in
// booking order) completes at the latest ready_k + d_k + … + d_n over
// every k ≤ n — the unrolled queue recursion, with no running "free"
// instant, so it shares no arithmetic with Stage.
func fifoDone(ready, d []Time) []Time {
	done := make([]Time, len(ready))
	for n := range ready {
		var sum Time
		for k := n; k >= 0; k-- {
			sum += d[k]
			done[n] = max(done[n], ready[k]+sum)
		}
	}
	return done
}

func TestStageMatchesFIFOQueue(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		inOrder := trial%2 == 0
		n := 1 + rng.Intn(60)
		ready, d := make([]Time, n), make([]Time, n)
		var at Time
		for i := range ready {
			if inOrder {
				at += Time(rng.Intn(100))
				ready[i] = at
			} else {
				ready[i] = Time(rng.Intn(100 * n))
			}
			if rng.Intn(4) > 0 { // a quarter of the jobs take no service
				d[i] = Time(rng.Intn(150))
			}
		}
		want := fifoDone(ready, d)

		var s Stage
		var busy Time
		for i := range ready {
			// Probe the backlog at an instant before the booking: how far
			// the work booked so far extends past it.
			now := Time(rng.Intn(100 * (n + 1)))
			var last Time
			if i > 0 {
				last = want[i-1]
			}
			if got, want := s.Backlog(now), max(last-now, 0); got != want {
				t.Fatalf("trial %d job %d: Backlog(%d) = %d, want %d", trial, i, now, got, want)
			}
			if got := s.Book(ready[i], d[i]); got != want[i] {
				t.Fatalf("trial %d (in order %v) job %d: Book(%d, %d) = %d, want %d",
					trial, inOrder, i, ready[i], d[i], got, want[i])
			}
			busy += d[i]
		}
		if s.Busy() != busy {
			t.Fatalf("trial %d: Busy() = %d, want %d", trial, s.Busy(), busy)
		}
	}
}

func TestFreeListRecycles(t *testing.T) {
	type rec struct{ v int }
	var l FreeList[rec]
	if r := l.Get(); r == nil || *r != (rec{}) {
		t.Fatalf("Get on an empty list = %v, want a zero record", r)
	}
	a, b := &rec{v: 1}, &rec{v: 2}
	l.Put(a)
	l.Put(b)
	if got := l.Get(); got != b {
		t.Fatalf("first Get = %p, want the last record put (%p)", got, b)
	}
	if got := l.Get(); got != a {
		t.Fatalf("second Get = %p, want the first record put (%p)", got, a)
	}
	if r := l.Get(); r == a || r == b || *r != (rec{}) {
		t.Fatalf("Get after draining = %v, want a fresh zero record", r)
	}
	l.Put(a)
	if allocs := testing.AllocsPerRun(100, func() { l.Put(l.Get()) }); allocs != 0 {
		t.Fatalf("warm Get/Put allocates %.1f times per pair, want 0", allocs)
	}
}
