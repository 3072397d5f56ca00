package sim

// Stage is a FIFO server with one slot: the booking arithmetic behind
// every serializing resource in the simulation — a host CPU, a switch
// port's ingress and egress parsers, a link's transmit side. Work is
// served in booking order: each item starts once it is ready and the
// item booked before it is done, and holds the server for its service
// time.
type Stage struct {
	free Time // instant the server finishes the work already booked
	busy Time // total service booked
}

// Book queues work that is ready at from and needs d of service, and
// returns the instant it completes.
func (s *Stage) Book(from, d Time) (done Time) {
	s.free = max(s.free, from) + d
	s.busy += d
	return s.free
}

// Backlog returns how far past now the booked work extends: 0 when the
// server is idle at now.
func (s *Stage) Backlog(now Time) Time { return max(0, s.free-now) }

// Busy returns the total service booked so far.
func (s *Stage) Busy() Time { return s.busy }

// FreeList is a stack of recycled records. It keeps hot paths
// allocation-free without sync.Pool, whose reuse order depends on the
// garbage collector: the record Get returns is always the one Put last,
// so a seeded run replays identically. The owner resets a record before
// Put; Get hands it back as it was put.
type FreeList[T any] struct{ recs []*T }

// Get pops the most recently put record, or allocates a zero one when
// the list is empty.
func (l *FreeList[T]) Get() *T {
	n := len(l.recs)
	if n == 0 {
		return new(T)
	}
	r := l.recs[n-1]
	l.recs[n-1] = nil
	l.recs = l.recs[:n-1]
	return r
}

// Put pushes r for a later Get to reuse.
func (l *FreeList[T]) Put(r *T) { l.recs = append(l.recs, r) }
