package bench

import (
	"fmt"
	"time"

	"p4ce"
	"p4ce/internal/mu"
	"p4ce/internal/sim"
)

// ErrStalled reports a workload that stopped making progress.
type stalledError struct{ stage string }

func (e *stalledError) Error() string { return "bench: workload stalled during " + e.stage }

// Steady builds a single-group cluster in a measurable steady state and
// returns its leader; see SteadySharded.
func Steady(opts p4ce.Options) (*p4ce.Cluster, *p4ce.Node, error) {
	cl, leaders, err := SteadySharded(opts)
	if err != nil {
		return nil, nil, err
	}
	return cl, leaders[0], nil
}

// SteadySharded builds a cluster in a measurable steady state:
// heartbeats off, every shard's view forced to its machine 0, the
// takeover shortcut applied, and every shard leader — in P4CE mode —
// accelerated, with full membership. It returns the leaders by shard.
func SteadySharded(opts p4ce.Options) (*p4ce.Cluster, []*p4ce.Node, error) {
	opts.DisableHeartbeats = true
	userTune := opts.TuneNode
	opts.TuneNode = func(i int, cfg *mu.Config) {
		// The election already happened by fiat; do not also charge the
		// takeover delay in every benchmark run.
		cfg.LeaderTakeoverDelay = 10 * sim.Microsecond
		if userTune != nil {
			userTune(i, cfg)
		}
	}
	cl := p4ce.NewCluster(opts)
	cl.ForceLeader(0)
	leaders := make([]*p4ce.Node, cl.ShardCount())
	ready := func() bool {
		for s := range leaders {
			l := cl.ShardLeader(s)
			// Wait for the full membership: measuring while a
			// straggler's grant is still in flight would mix bulk
			// catch-up into the steady-state numbers.
			if l == nil || (opts.Mode == p4ce.ModeP4CE && !l.Accelerated()) || l.ReplicationPaths() < opts.Nodes-1 {
				return false
			}
			leaders[s] = l
		}
		return true
	}
	for deadline := cl.Now() + 500*time.Millisecond; cl.Now() < deadline && cl.Step(); {
		if ready() {
			return cl, leaders, nil
		}
	}
	return nil, nil, &stalledError{stage: "steady-state setup"}
}

// closedLoop is one shard's closed-loop driver: it keeps depth
// proposals outstanding on the shard's leader, discards warmup
// completions, then measures ops completions on the shard's clock.
// Everything in it is touched only from the shard's domain while the
// kernel runs; drivers read it between Step/Run calls.
//
// Completions arrive in issue order (a single leader commits in index
// order), and at most depth proposals are ever outstanding, so issue
// timestamps flow through a circular buffer instead of one captured
// closure per operation. The loop itself is then allocation-free in
// steady state, which keeps the workload generator out of the
// allocs/op measurements of the path under test.
type closedLoop struct {
	sh         *p4ce.Shard
	leader     *p4ce.Node
	payload    []byte
	warmup     int
	total      int // warmup + measured ops
	issued     int
	completed  int
	proposedAt []time.Duration // depth slots
	lat        *sim.LatencyRecorder
	startAt    time.Duration // measurement window, on the shard's clock
	endAt      time.Duration
	busyAt0    time.Duration // leader CPU busy time at startAt
	done       func(error)   // complete, bound once: a method value per Propose would allocate
	stalled    error
}

func newClosedLoop(cl *p4ce.Cluster, leader *p4ce.Node, payload []byte, depth, warmup, ops int) *closedLoop {
	lp := &closedLoop{
		sh:         cl.Shard(leader.Shard()),
		leader:     leader,
		payload:    payload,
		warmup:     warmup,
		total:      warmup + ops,
		proposedAt: make([]time.Duration, depth),
		lat:        sim.NewLatencyRecorder(ops),
	}
	lp.done = lp.complete
	return lp
}

// start fills the pipeline. Call it from the shard's domain, or while
// the cluster is quiesced.
func (lp *closedLoop) start() {
	if lp.warmup == 0 {
		lp.startAt = lp.sh.Now()
	}
	for range lp.proposedAt {
		lp.issue()
	}
}

func (lp *closedLoop) issue() {
	if lp.stalled != nil || lp.issued >= lp.total {
		return
	}
	lp.proposedAt[lp.issued%len(lp.proposedAt)] = lp.sh.Now()
	lp.issued++
	if err := lp.leader.Propose(lp.payload, lp.done); err != nil {
		lp.stalled = err
	}
}

func (lp *closedLoop) complete(err error) {
	if err != nil {
		lp.stalled = fmt.Errorf("bench: proposal failed: %w", err)
		return
	}
	at := lp.proposedAt[lp.completed%len(lp.proposedAt)]
	lp.completed++
	now := lp.sh.Now()
	switch {
	case lp.completed == lp.warmup:
		lp.startAt = now
		lp.busyAt0 = lp.leader.CPUBusy()
	case lp.completed > lp.warmup:
		lp.lat.Record(sim.Time(now - at))
		if lp.completed == lp.total {
			lp.endAt = now
		}
	}
	lp.issue()
}

// loopsFinished reports whether every loop has completed its last
// operation, or the first stall among them.
func loopsFinished(loops []*closedLoop) (bool, error) {
	finished := true
	for _, lp := range loops {
		if lp.stalled != nil {
			return false, lp.stalled
		}
		finished = finished && lp.completed == lp.total
	}
	return finished, nil
}

// stepLoops starts every loop and drives the cluster one event at a
// time until all have finished.
func stepLoops(cl *p4ce.Cluster, loops []*closedLoop) error {
	for _, lp := range loops {
		lp.start()
	}
	for {
		if finished, err := loopsFinished(loops); finished || err != nil {
			return err
		}
		if !cl.Step() {
			return &stalledError{stage: "closed loop"}
		}
	}
}

// loopTotals aggregates finished loops, one per shard.
type loopTotals struct {
	committed   int     // completions across shards, warmup included
	opsPerS     float64 // sum of the per-shard rates over each shard's own window
	goodputGBps float64
	minOpsPerS  float64
	maxOpsPerS  float64
	meanLat     time.Duration
	p99Lat      time.Duration // worst shard
}

func totalLoops(loops []*closedLoop) (loopTotals, error) {
	var t loopTotals
	var latSum, latCount float64
	for i, lp := range loops {
		elapsed := lp.endAt - lp.startAt
		if elapsed <= 0 {
			return t, &stalledError{stage: "measurement window"}
		}
		ops := lp.total - lp.warmup
		rate := float64(ops) / elapsed.Seconds()
		t.committed += lp.completed
		t.opsPerS += rate
		t.goodputGBps += rate * float64(len(lp.payload)) / 1e9
		if i == 0 || rate < t.minOpsPerS {
			t.minOpsPerS = rate
		}
		if rate > t.maxOpsPerS {
			t.maxOpsPerS = rate
		}
		latSum += float64(lp.lat.Mean()) * float64(ops)
		latCount += float64(ops)
		if p99 := time.Duration(lp.lat.Percentile(99)); p99 > t.p99Lat {
			t.p99Lat = p99
		}
	}
	t.meanLat = time.Duration(latSum / latCount)
	return t, nil
}

// ClosedLoopResult summarizes a closed-loop run.
type ClosedLoopResult struct {
	Ops          int
	Elapsed      time.Duration
	Throughput   float64 // consensus operations per second
	GoodputBytes float64 // client payload bytes per second
	MeanLat      time.Duration
	P50Lat       time.Duration
	P99Lat       time.Duration
	P999Lat      time.Duration
	MaxLat       time.Duration
	// WindowStart/WindowEnd are the simulation timestamps bounding the
	// measurement (after warmup, through the last counted completion).
	WindowStart time.Duration
	WindowEnd   time.Duration
	// LeaderCPU is the leader core's utilization across the measurement
	// window.
	LeaderCPU float64
}

// ClosedLoop keeps depth proposals outstanding, discards warmup
// completions, then measures ops completions.
func ClosedLoop(cl *p4ce.Cluster, leader *p4ce.Node, size, depth, warmup, ops int) (ClosedLoopResult, error) {
	var res ClosedLoopResult
	lp := newClosedLoop(cl, leader, make([]byte, size), depth, warmup, ops)
	if err := stepLoops(cl, []*closedLoop{lp}); err != nil {
		return res, err
	}
	elapsed := lp.endAt - lp.startAt
	if elapsed <= 0 {
		return res, &stalledError{stage: "measurement window"}
	}
	res.Ops = ops
	res.Elapsed = elapsed
	res.Throughput = float64(ops) / elapsed.Seconds()
	res.GoodputBytes = float64(ops) * float64(size) / elapsed.Seconds()
	res.MeanLat = time.Duration(lp.lat.Mean())
	res.P50Lat = time.Duration(lp.lat.Percentile(50))
	res.P99Lat = time.Duration(lp.lat.Percentile(99))
	res.P999Lat = time.Duration(lp.lat.Percentile(99.9))
	res.MaxLat = time.Duration(lp.lat.Max())
	res.WindowStart = lp.startAt
	res.WindowEnd = lp.endAt
	res.LeaderCPU = float64(leader.CPUBusy()-lp.busyAt0) / float64(elapsed)
	if res.LeaderCPU > 1 {
		res.LeaderCPU = 1
	}
	return res, nil
}
