package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"p4ce"
)

// The fabric-failover episode, in simulated time from the moment the
// leader is accelerated: arrivals for loadFor, the leader crashed at
// crashAt, and tailFor more after the last arrival so every retried
// operation can finish on the new leader. The test's scale shortens the
// load, never the tail: the 40 ms reconfiguration does not scale.
const (
	failoverRate = 100_000 // arrivals per simulated second
	loadFor      = 200 * time.Millisecond
	crashAt      = 20 * time.Millisecond
	tailFor      = 100 * time.Millisecond
)

// arrival is one pre-generated client operation.
type arrival struct {
	due   time.Duration // offset from the start of load
	key   string
	value string
}

// genArrivals draws a Poisson arrival process and the KV writes it
// carries. Keys are unique, so a write that is acknowledged must be
// readable from every live replica afterwards.
func genArrivals(rng *rand.Rand, scale float64) []arrival {
	var out []arrival
	horizon := time.Duration(float64(loadFor) * scale)
	for at := time.Duration(0); ; {
		at += time.Duration(rng.ExpFloat64() / failoverRate * float64(time.Second))
		if at >= horizon {
			return out
		}
		out = append(out, arrival{
			due:   at,
			key:   fmt.Sprintf("k%07d", len(out)),
			value: fmt.Sprintf("%016x", rng.Uint64()),
		})
	}
}

// episode is what one fail-over run measured.
type episode struct {
	setupS    float64
	wallNs    float64
	attempted uint64
	acked     uint64
	failed    uint64
	events    uint64
	eventsEnd uint64
	simNs     int64
	bytes     uint64
	lat       []int64
	unavailMs float64
	lateNsMax int64
	memMB     float64
	probe     *traceProbe
	problems  []string
}

// runEpisode builds a leaf-spine cluster as `p4ce-sim -chaos` users run
// it (heartbeats and telemetry on, a deduplicating KV store on every
// machine), offers an open loop of writes through one retrying client,
// crashes the leader under load and checks what survived.
func runEpisode(seed int64, scale float64, traced bool) (*episode, error) {
	ep := &episode{}
	arrivals := genArrivals(rand.New(rand.NewSource(seed)), scale)
	ep.attempted = uint64(len(arrivals))
	ep.lat = make([]int64, 0, len(arrivals))

	t0 := time.Now()
	cl := p4ce.NewCluster(p4ce.Options{
		Nodes:           5,
		Mode:            p4ce.ModeP4CE,
		Seed:            seed,
		Topology:        &p4ce.Topology{Racks: 2, Spines: 2, Standby: true},
		EnableTelemetry: true,
		EnableTracing:   traced,
	})
	stores := make([]*p4ce.KV, len(cl.Nodes()))
	for i, n := range cl.Nodes() {
		stores[i] = p4ce.NewKV()
		n.Bind(p4ce.NewDedup(stores[i]))
	}
	leader, err := cl.RunUntilLeader(500 * time.Millisecond)
	if err != nil {
		return nil, err
	}
	client := cl.NewClient()
	ep.setupS = time.Since(t0).Seconds()

	// The generator: one event per arrival, each scheduling the next,
	// so the kernel never holds more than one pending arrival.
	loadStart := cl.Now()
	sh := cl.Shard(0)
	var lastAck time.Duration
	var maxGap time.Duration
	next := 0
	var submit func()
	submit = func() {
		a := arrivals[next]
		next++
		due := loadStart + a.due
		if late := int64(sh.Now() - due); late > ep.lateNsMax {
			ep.lateNsMax = late
		}
		cmd := p4ce.SetCommand(a.key, a.value)
		client.Submit(cmd, func(err error) {
			if err != nil {
				ep.failed++
				return
			}
			now := sh.Now()
			if gap := now - lastAck; lastAck != 0 && gap > maxGap {
				maxGap = gap
			}
			lastAck = now
			ep.acked++
			ep.bytes += uint64(len(cmd))
			// Timed from when the operation was due, not from when a
			// retry finally reached a leader.
			ep.lat = append(ep.lat, int64(now-due))
		})
		if next < len(arrivals) {
			sh.After(loadStart+arrivals[next].due-sh.Now(), submit)
		}
	}
	if len(arrivals) > 0 {
		sh.After(arrivals[0].due, submit)
	}
	sh.After(time.Duration(float64(crashAt)*scale), leader.Crash)

	if traced {
		ep.probe = startTraceProbe(cl)
	}
	ev0 := cl.EventsProcessed()
	t1 := time.Now()
	cl.Run(time.Duration(float64(loadFor)*scale) + tailFor)
	ep.wallNs = float64(time.Since(t1).Nanoseconds())
	ep.events = cl.EventsProcessed() - ev0
	ep.eventsEnd = cl.EventsProcessed()
	ep.simNs = int64(cl.Now() - loadStart)
	ep.unavailMs = float64(maxGap) / 1e6
	if ep.probe != nil {
		ep.probe.endWindow(cl)
		ep.probe.retries = float64(client.Retries)
		ep.probe.readAlerts(cl, int64(loadStart)+int64(float64(crashAt)*scale))
	}

	// Output check: every write was acknowledged, the crashed leader was
	// replaced, the live replicas hold identical stores, and every
	// acknowledged write is in them exactly as submitted.
	fail := func(format string, args ...any) { ep.problems = append(ep.problems, fmt.Sprintf(format, args...)) }
	if ep.acked+ep.failed != ep.attempted {
		fail("%d operations never completed", ep.attempted-ep.acked-ep.failed)
	}
	if ep.failed != 0 {
		fail("%d of %d operations failed", ep.failed, ep.attempted)
	}
	newLeader := cl.Leader()
	if newLeader == nil || newLeader == leader {
		fail("no new leader after the crash")
		return ep, nil
	}
	// Keys are unique and every store must hold each acknowledged one
	// with its value, so equal sizes make the stores equal.
	for i, n := range cl.Nodes() {
		if n.Crashed() {
			continue
		}
		missing := 0
		for _, a := range arrivals {
			if v, _ := stores[i].Get(a.key); v != a.value {
				missing++
			}
		}
		if missing > int(ep.failed) {
			fail("machine %d is missing %d acknowledged writes", i, missing-int(ep.failed))
		}
		if stores[i].Len() != stores[newLeader.ID()].Len() {
			fail("machine %d holds %d keys, the leader %d", i, stores[i].Len(), stores[newLeader.ID()].Len())
		}
	}
	ep.memMB = liveHeapMB()
	runtime.KeepAlive(cl)
	return ep, nil
}

// runFailover runs episodes until the budget is spent. The first
// rc.detSegs episodes are the deterministic window; an episode is a
// segment, and every episode performs its own set-up.
func runFailover(rc runConfig) (*result, error) {
	rc = rc.withDefaults()
	res := &result{}
	stopProfile, err := startProfile(rc.profile)
	if err != nil {
		return nil, err
	}
	defer stopProfile()
	var probes []*traceProbe
	var gaps, mems []float64
	mem0 := readMem()
	deadline := deadlineAfter(time.Now(), rc.seconds)
	for e := 1; ; e++ {
		// Every episode is another cluster and another arrival stream.
		ep, err := runEpisode(rc.seed*1000+int64(e), rc.scale, rc.traced)
		if err != nil {
			return nil, fmt.Errorf("episode %d: %w", e, err)
		}
		for _, p := range ep.problems {
			res.fail("episode %d: %s", e, p)
		}
		if ep.acked == 0 {
			return nil, fmt.Errorf("episode %d: no operation was acknowledged", e)
		}
		res.attempted += ep.attempted
		res.failed += ep.failed
		res.setupS = append(res.setupS, ep.setupS)
		res.segNsPerOp = append(res.segNsPerOp, ep.wallNs/float64(ep.acked))
		res.ops += ep.acked
		res.bytes += ep.bytes
		res.events += ep.events
		res.simNs += ep.simNs
		mems = append(mems, ep.memMB)
		if e <= rc.detSegs {
			res.detOps += ep.acked
			res.detEvents += ep.events
			res.detSimNs += ep.simNs
			res.detWallNs += ep.wallNs
			res.lat = append(res.lat, ep.lat...)
			res.eventsAtEnd += ep.eventsEnd
			gaps = append(gaps, ep.unavailMs)
			if ep.lateNsMax > res.genLateNsMax {
				res.genLateNsMax = ep.lateNsMax
			}
			if ep.probe != nil {
				probes = append(probes, ep.probe)
			}
		}
		if e == rc.detSegs {
			res.allocsOp = float64(readMem().mallocs-mem0.mallocs) / float64(res.detOps)
		}
		if e >= rc.detSegs && !time.Now().Before(deadline) {
			break
		}
	}
	res.unavailMs = median(gaps)
	res.hostMemMB = median(mems)
	res.gcCycles = readMem().gc - mem0.gc
	if len(probes) > 0 {
		res.layer = mergeProbes(probes).finish(res)
	}
	return res, nil
}
