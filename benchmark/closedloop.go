package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"p4ce"
)

// loopSpec describes a closed-loop workload: every shard's leader is
// kept depth proposals deep, the next one issued from the completion
// callback of the previous. A slow cluster therefore receives less
// load, which is how the paper's throughput points are taken.
type loopSpec struct {
	name  string
	opts  p4ce.Options
	size  int // client payload bytes per operation
	depth int // outstanding proposals per shard
	// window is the simulated time of one segment. A segment is one
	// Cluster.Run call; wall time is read on either side of it, with
	// the pipeline left full.
	window time.Duration
}

const (
	poolSize    = 4096 // distinct payloads per shard
	warmWindows = 1    // segments run, unmeasured, as part of set-up
	minWindow   = 500 * time.Microsecond
)

// shardLoop is one shard's generator and checker state. It is touched
// only from events on the shard's scheduling domain while the kernel
// runs, and from the main goroutine between Run calls.
type shardLoop struct {
	sh     *p4ce.Shard
	leader *p4ce.Node
	pool   [][]byte
	depth  int

	issued uint64
	acked  uint64
	failed uint64
	stop   bool
	err    error

	proposedAt []time.Duration // issue times, a ring depth deep
	done       func(error)

	// rec is on during the deterministic window; the main goroutine
	// flips it between Run calls.
	rec     bool
	lat     []int64
	lastAck time.Duration // previous ack inside the window, 0 if none yet
	maxGap  time.Duration

	applied []*applyState // one per machine of the shard
}

// applyState is one replica's running output hash.
type applyState struct {
	count uint64
	hash  uint64
}

func (lp *shardLoop) issue() {
	if lp.stop || lp.err != nil {
		return
	}
	lp.proposedAt[lp.issued%uint64(lp.depth)] = lp.sh.Now()
	payload := lp.pool[lp.issued%uint64(len(lp.pool))]
	lp.issued++
	if err := lp.leader.Propose(payload, lp.done); err != nil {
		lp.err = fmt.Errorf("propose: %w", err)
	}
}

func (lp *shardLoop) complete(err error) {
	n := lp.acked + lp.failed
	if err != nil {
		lp.failed++
		lp.issue()
		return
	}
	lp.acked++
	if lp.rec {
		now := lp.sh.Now()
		if gap := now - lp.lastAck; lp.lastAck != 0 && gap > lp.maxGap {
			lp.maxGap = gap
		}
		lp.lastAck = now
		lp.lat = append(lp.lat, int64(now-lp.proposedAt[n%uint64(lp.depth)]))
	}
	lp.issue()
}

// steady builds the cluster and brings every shard to a measurable
// state: view forced to machine 0, switch group installed (P4CE mode),
// every replica's write path granted.
func steady(opts p4ce.Options) (*p4ce.Cluster, []*p4ce.Node, error) {
	opts.DisableHeartbeats = true
	cl := p4ce.NewCluster(opts)
	cl.ForceLeader(0)
	leaders := make([]*p4ce.Node, cl.ShardCount())
	for cl.Now() < 500*time.Millisecond && cl.Step() {
		ready := true
		for s := range leaders {
			l := cl.ShardLeader(s)
			if l == nil || (opts.Mode == p4ce.ModeP4CE && !l.Accelerated()) || l.ReplicationPaths() < opts.Nodes-1 {
				ready = false
				break
			}
			leaders[s] = l
		}
		if ready {
			return cl, leaders, nil
		}
	}
	return nil, nil, errors.New("steady-state set-up stalled")
}

// startLoops hooks every machine's apply stream and starts one closed
// loop per shard, on the shard's own domain.
func startLoops(cl *p4ce.Cluster, leaders []*p4ce.Node, spec loopSpec, pools [][][]byte) []*shardLoop {
	loops := make([]*shardLoop, len(leaders))
	for s, leader := range leaders {
		lp := &shardLoop{
			sh:         cl.Shard(s),
			leader:     leader,
			pool:       pools[s],
			depth:      spec.depth,
			proposedAt: make([]time.Duration, spec.depth),
		}
		lp.done = lp.complete
		for _, n := range lp.sh.Nodes() {
			st := &applyState{}
			lp.applied = append(lp.applied, st)
			n.OnApply(func(_ uint64, op []byte) {
				st.count++
				st.hash = chain(st.hash, op)
			})
		}
		loops[s] = lp
		lp.sh.After(time.Microsecond, func() {
			for i := 0; i < lp.depth; i++ {
				lp.issue()
			}
		})
	}
	return loops
}

func totals(loops []*shardLoop) (issued, acked, failed uint64, err error) {
	for _, lp := range loops {
		issued += lp.issued
		acked += lp.acked
		failed += lp.failed
		if lp.err != nil && err == nil {
			err = lp.err
		}
	}
	return
}

// runClosedLoop performs set-up rc.setups times, then measures on the
// last cluster: rc.detSegs segments form the deterministic window, and
// segments continue until the wall-clock budget is spent.
func runClosedLoop(spec loopSpec, rc runConfig) (*result, error) {
	rc = rc.withDefaults()
	res := &result{}
	opts := spec.opts
	opts.Seed = rc.seed
	opts.EnableMetrics = rc.traced
	opts.EnableTracing = rc.traced
	if rc.partitions > 0 {
		opts.Partitions = rc.partitions
	}
	// A scaled-down segment must still be several commit latencies long.
	window := time.Duration(float64(spec.window) * rc.scale)
	if window < minWindow {
		window = minWindow
	}

	// Inputs first: the program sees only these bytes.
	rng := rand.New(rand.NewSource(rc.seed))
	shards := opts.Shards
	if shards == 0 {
		shards = 1
	}
	pools := make([][][]byte, shards)
	for s := range pools {
		pools[s] = payloadPool(rng, poolSize, spec.size)
	}

	var (
		cl    *p4ce.Cluster
		loops []*shardLoop
	)
	for i := 0; i < rc.setups; i++ {
		// The previous attempt's cluster is garbage; collecting it here
		// keeps it out of this attempt's time.
		cl, loops = nil, nil
		runtime.GC()
		t0 := time.Now()
		c, leaders, err := steady(opts)
		if err != nil {
			return nil, err
		}
		cl, loops = c, startLoops(c, leaders, spec, pools)
		cl.Run(warmWindows * window)
		if i == rc.setups-1 {
			// Room for the window's samples, sized from what warm-up
			// just did, so recording never allocates while measured.
			for _, lp := range loops {
				lp.lat = make([]int64, 0, int(lp.acked)*rc.detSegs/warmWindows*3/2+1024)
				lp.rec = true
			}
		}
		res.setupS = append(res.setupS, time.Since(t0).Seconds())
	}
	if _, _, _, err := totals(loops); err != nil {
		return nil, err
	}

	var tr *traceProbe
	if rc.traced {
		tr = startTraceProbe(cl)
	}
	stopProfile, err := startProfile(rc.profile)
	if err != nil {
		return nil, err
	}
	mem0 := readMem()
	ev0, sim0 := cl.EventsProcessed(), cl.Now()
	_, acked0, _, _ := totals(loops)
	prev := acked0
	var wallNs float64
	deadline := deadlineAfter(time.Now(), rc.seconds)
	for seg := 1; ; seg++ {
		t0 := time.Now()
		cl.Run(window)
		segNs := float64(time.Since(t0).Nanoseconds())
		_, acked, _, err := totals(loops)
		if err != nil {
			stopProfile()
			return nil, err
		}
		if acked == prev {
			stopProfile()
			return nil, fmt.Errorf("%s: no operation completed in segment %d", spec.name, seg)
		}
		res.segNsPerOp = append(res.segNsPerOp, segNs/float64(acked-prev))
		wallNs += segNs
		prev = acked
		if seg == rc.detSegs {
			res.allocsOp = float64(readMem().mallocs-mem0.mallocs) / float64(acked-acked0)
			res.detOps = acked - acked0
			res.detEvents = cl.EventsProcessed() - ev0
			res.detSimNs = int64(cl.Now() - sim0)
			res.detWallNs = wallNs
			res.eventsAtEnd = cl.EventsProcessed()
			res.hostMemMB = liveHeapMB()
			for _, lp := range loops {
				lp.rec = false
			}
			if tr != nil {
				tr.endWindow(cl)
			}
		}
		if seg >= rc.detSegs && !time.Now().Before(deadline) {
			break
		}
	}
	stopProfile()
	res.ops = prev - acked0
	res.bytes = res.ops * uint64(spec.size)
	res.events = cl.EventsProcessed() - ev0
	res.simNs = int64(cl.Now() - sim0)
	res.gcCycles = readMem().gc - mem0.gc
	if tr != nil {
		res.layer = tr.finish(res)
	}

	// Drain: stop issuing, let the pipeline empty and the last commit
	// index reach the replicas (a commit-sync no-op, 500 µs).
	for _, lp := range loops {
		lp.stop = true
	}
	for i := 0; i < 1000; i++ {
		cl.Run(time.Millisecond)
		if issued, acked, failed, _ := totals(loops); acked+failed == issued {
			break
		}
	}
	cl.Run(2 * time.Millisecond)

	issued, acked, failed, _ := totals(loops)
	res.attempted = issued
	res.failed = failed
	if failed != 0 {
		res.fail("%d of %d proposals failed", failed, issued)
	}
	if acked+failed != issued {
		res.fail("%d proposals never completed", issued-acked-failed)
	}
	var windowOps uint64
	for s, lp := range loops {
		windowOps += uint64(len(lp.lat))
		res.lat = append(res.lat, lp.lat...)
		if ms := float64(lp.maxGap) / 1e6; ms > res.unavailMs {
			res.unavailMs = ms
		}
		// The benchmark's own copy of the expected output.
		var want uint64
		for i := uint64(0); i < lp.acked; i++ {
			want = chain(want, lp.pool[i%uint64(len(lp.pool))])
		}
		for i, st := range lp.applied {
			if st.count != lp.acked {
				res.fail("shard %d machine %d applied %d operations, %d were acknowledged", s, i, st.count, lp.acked)
			} else if st.hash != want {
				res.fail("shard %d machine %d applied a different sequence than was issued", s, i)
			}
		}
		if opts.BatchMaxOps == 1 && lp.leader.CommitIndex() < lp.acked {
			res.fail("shard %d leader commit index %d below %d acknowledged", s, lp.leader.CommitIndex(), lp.acked)
		}
	}
	if windowOps != res.detOps {
		res.fail("deterministic window recorded %d samples for %d operations", windowOps, res.detOps)
	}
	return res, nil
}
