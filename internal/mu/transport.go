package mu

import (
	"errors"

	"p4ce/internal/otrace"
	"p4ce/internal/sim"
)

// Transport errors.
var (
	// ErrNotReady reports a replicate call on a transport that has no
	// usable path.
	ErrNotReady = errors.New("mu: transport not ready")
)

// Transport is how a leader's decided value physically reaches the
// replicas. Mu's own transport posts one RDMA write per replica; the
// P4CE transport (package core) posts a single write to the switch.
type Transport interface {
	// Name identifies the transport in diagnostics.
	Name() string
	// Requests is how many RDMA requests the leader's CPU builds per
	// replicated entry — the quantity the paper's CPU-bound experiments
	// hinge on (§V-C).
	Requests() int
	// AcksNeeded is how many acknowledgment events delivered to the
	// leader constitute the majority (f for the direct transport; one
	// for the switch, which aggregated f itself).
	AcksNeeded() int
	// AcksExpected is how many acknowledgment events the leader's CPU
	// will process per entry (n for direct, one for the switch).
	AcksExpected() int
	// Ready reports whether the transport currently has a usable path.
	Ready() bool
	// Replicate writes the encoded entry at ring offset off in every
	// replica's log. ack is invoked once per acknowledgment event (up to
	// AcksExpected times), with nil for a positive acknowledgment. trace
	// is the entry's causal trace ID (zero when untraced); transports
	// thread it down to the NIC so the posted write carries it.
	Replicate(data []byte, off int, trace otrace.ID, ack func(error)) error
}

// replPath is one established leader→replica write path.
type replPath struct {
	id      int
	qpWrite func(data []byte, off int, trace otrace.ID, done func(error)) error
	healthy bool
}

// pathAck carries one posted write's completion back to its path and
// to the entry's ack callback. fn is bound once, when the record is
// first made, and survives recycling, so replicating an entry builds no
// closure per path.
type pathAck struct {
	t   *DirectTransport
	p   *replPath
	ack func(error)
	fn  func(error)
}

// DirectTransport is Mu's communication plane: the leader divides its
// link between the replicas, posting one RDMA write per replica per
// entry and aggregating their acknowledgments itself.
type DirectTransport struct {
	f       int // cluster majority minus the leader itself
	paths   []*replPath
	ackFree sim.FreeList[pathAck]
}

var _ Transport = (*DirectTransport)(nil)

// NewDirectTransport builds the direct transport for a cluster of the
// given total size (leader included).
func NewDirectTransport(clusterSize int) *DirectTransport {
	return &DirectTransport{f: clusterSize / 2}
}

// AddPath registers an established write path to one replica.
func (t *DirectTransport) AddPath(id int, write func(data []byte, off int, trace otrace.ID, done func(error)) error) {
	t.paths = append(t.paths, &replPath{id: id, qpWrite: write, healthy: true})
}

// RemovePath drops the path to a replica (crash exclusion).
func (t *DirectTransport) RemovePath(id int) {
	for _, p := range t.paths {
		if p.id == id {
			p.healthy = false
		}
	}
}

// PathCount returns the number of healthy paths.
func (t *DirectTransport) PathCount() int {
	n := 0
	for _, p := range t.paths {
		if p.healthy {
			n++
		}
	}
	return n
}

// Name implements Transport.
func (t *DirectTransport) Name() string { return "mu-direct" }

// Requests implements Transport: one write per live replica.
func (t *DirectTransport) Requests() int { return t.PathCount() }

// AcksNeeded implements Transport.
func (t *DirectTransport) AcksNeeded() int { return t.f }

// AcksExpected implements Transport.
func (t *DirectTransport) AcksExpected() int { return t.PathCount() }

// Ready implements Transport: a majority of paths must be healthy.
func (t *DirectTransport) Ready() bool { return t.PathCount() >= t.f }

// Replicate implements Transport.
func (t *DirectTransport) Replicate(data []byte, off int, trace otrace.ID, ack func(error)) error {
	if !t.Ready() {
		return ErrNotReady
	}
	for _, p := range t.paths {
		if !p.healthy {
			continue
		}
		r := t.getPathAck(p, ack)
		if err := p.qpWrite(data, off, trace, r.fn); err != nil {
			// A write refused at post time never completes.
			t.putPathAck(r)
			p.healthy = false
			ack(err)
		}
	}
	return nil
}

func (t *DirectTransport) getPathAck(p *replPath, ack func(error)) *pathAck {
	r := t.ackFree.Get()
	if r.fn == nil {
		r.t = t
		r.fn = r.done
	}
	r.p, r.ack = p, ack
	return r
}

func (t *DirectTransport) putPathAck(r *pathAck) {
	r.p, r.ack = nil, nil
	t.ackFree.Put(r)
}

// done completes one write: a failed write takes its path out of
// service, and the entry's callback hears the verdict either way.
func (r *pathAck) done(err error) {
	p, ack := r.p, r.ack
	r.t.putPathAck(r)
	if err != nil {
		p.healthy = false
	}
	ack(err)
}
