// Command p4ce-sim runs ad-hoc cluster scenarios: pick a size and a
// communication mode, offer a workload, script failures, and read the
// resulting protocol and switch statistics.
//
//	p4ce-sim -nodes 5 -mode p4ce -duration 200ms -rate 100000 -size 64
//	p4ce-sim -nodes 3 -mode mu -crash leader@50ms
//	p4ce-sim -nodes 5 -backup -crash replica4@30ms,leader@60ms,switch@120ms
//	p4ce-sim -nodes 5 -topology leaf-spine -racks 4 -standby -crash tor1@50ms
//
// The -topology flag picks the switch layer: "single" (default) is the
// paper's one programmable ToR; "leaf-spine" builds a multi-rack fabric
// (-racks leaf switches, -spines spine switches, replicas assigned to
// racks round-robin) with hierarchical ACK aggregation, and -standby
// cables a spare switch that adopts a failed ToR's identity. On the
// single switch, -backup cables every machine to a plain spare switch
// instead. Either way the fabric supervisor, polling every 5 ms, moves
// a dead ToR's machines onto their spare legs: after the 40 ms
// reconfiguration onto the standby, still accelerated, or after 55 ms
// of route reconvergence onto the backup, un-accelerated. The final
// "spare-leg" field reports whether the leader was moved.
//
// The -crash flag takes a comma-separated schedule of events:
// "leader@<t>" (whoever leads at t), "replica<N>@<t>" (machine N),
// "switch@<t>" (the programmable switch / rack 0's ToR), and — on a
// leaf-spine fabric — "tor<N>@<t>" and "spine<N>@<t>".
//
// The -chaos flag instead installs one of the named deterministic fault
// scenarios from the chaos harness (bursty loss, node flaps, partitions,
// switch reboots); "-chaos list" prints them. The same -chaos-seed
// replays the exact same fault pattern:
//
//	p4ce-sim -nodes 3 -chaos lossy-gather -chaos-seed 99
//
// The -trace-out flag enables the causal tracer and writes every
// operation's spans (leader post, switch pipeline, replica writes,
// gather, commit) as Chrome/Perfetto trace-event JSON:
//
//	p4ce-sim -nodes 3 -duration 5ms -trace-out trace.json
//
// The -telemetry-out flag enables the time-series telemetry pipeline
// (per-shard and per-rack series sampled every -telemetry-interval of
// sim time, with SLO burn-rate alerts) and writes the timeline at the
// end — OpenMetrics text when the path ends in .om or .prom,
// deterministic JSON otherwise. -metrics-every additionally prints a
// periodic delta of the metrics registry, riding the same telemetry
// ticker instead of adding its own event source:
//
//	p4ce-sim -nodes 3 -duration 50ms -telemetry-out timeline.json
//	p4ce-sim -nodes 3 -chaos switch-reboot -telemetry-out timeline.om -metrics-every 10ms
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"p4ce"
	"p4ce/internal/chaos"
	"p4ce/internal/trace"
)

func main() {
	var (
		nodes     = flag.Int("nodes", 3, "total machines (leader + replicas)")
		mode      = flag.String("mode", "p4ce", "communication mode: p4ce or mu")
		duration  = flag.Duration("duration", 100*time.Millisecond, "simulated run length")
		rate      = flag.Float64("rate", 50_000, "offered load, consensus/s (0 = idle)")
		size      = flag.Int("size", 64, "value size in bytes")
		seed      = flag.Int64("seed", 42, "simulation seed")
		parts     = flag.Int("partitions", 1, "kernel worker lanes; results never depend on it (same-seed runs are bit-identical at any N)")
		backup    = flag.Bool("backup", false, "cable a backup fabric")
		topology  = flag.String("topology", "single", "switch layer: single (one ToR) or leaf-spine (multi-rack fabric)")
		racks     = flag.Int("racks", 2, "leaf-spine: number of racks (leaf ToR switches)")
		spines    = flag.Int("spines", 2, "leaf-spine: number of spine switches")
		standby   = flag.Bool("standby", false, "leaf-spine: cable a standby switch that adopts a failed ToR")
		async     = flag.Bool("async-reconfig", false, "reconfigure the switch asynchronously (Lesson 3)")
		crash     = flag.String("crash", "", "failure schedule, e.g. leader@50ms,replica4@80ms,switch@120ms")
		chaosSc   = flag.String("chaos", "", "named fault scenario (\"list\" to enumerate)")
		chaosSd   = flag.Int64("chaos-seed", 1, "seed for the chaos engine's fault draws")
		doTrace   = flag.Bool("trace", false, "stream decoded packet summaries to stderr")
		traceOut  = flag.String("trace-out", "", "enable causal tracing and write Perfetto trace-event JSON here at the end")
		metricsF  = flag.Bool("metrics", false, "attach the sim-wide metrics registry and dump it as JSON at the end")
		metricsEv = flag.Duration("metrics-every", 0, "with telemetry enabled, also print a metrics delta every interval of sim time (shares the telemetry ticker; implies -metrics)")
		telOut    = flag.String("telemetry-out", "", "enable time-series telemetry and write the timeline here at the end (.om/.prom = OpenMetrics text, else JSON)")
		telEvery  = flag.Duration("telemetry-interval", 0, "telemetry sampling interval in sim time (0 = the 100µs default)")
	)
	flag.Parse()
	if *chaosSc == "list" {
		for _, sc := range chaos.All() {
			fmt.Printf("%-18s horizon %-8v %s\n", sc.Name, time.Duration(sc.Horizon), sc.Description)
		}
		return
	}
	var topo *p4ce.Topology
	switch *topology {
	case "single":
	case "leaf-spine":
		topo = &p4ce.Topology{Racks: *racks, Spines: *spines, Standby: *standby}
	default:
		fmt.Fprintf(os.Stderr, "p4ce-sim: unknown topology %q (want single or leaf-spine)\n", *topology)
		os.Exit(1)
	}
	if err := run(*nodes, *mode, *duration, *rate, *size, *seed, *parts, *backup, *async, topo, *crash, *chaosSc, *chaosSd, *doTrace, *traceOut, *metricsF, *metricsEv, *telOut, *telEvery); err != nil {
		fmt.Fprintln(os.Stderr, "p4ce-sim:", err)
		os.Exit(1)
	}
}

type crashEvent struct {
	at     time.Duration
	target string // "leader", "switch", or a machine id as "replicaN"
	id     int
}

func parseCrashes(spec string) ([]crashEvent, error) {
	if spec == "" {
		return nil, nil
	}
	var out []crashEvent
	for _, part := range strings.Split(spec, ",") {
		target, atStr, ok := strings.Cut(strings.TrimSpace(part), "@")
		if !ok {
			return nil, fmt.Errorf("bad crash event %q (want target@time)", part)
		}
		at, err := time.ParseDuration(atStr)
		if err != nil {
			return nil, fmt.Errorf("bad crash time %q: %w", atStr, err)
		}
		ev := crashEvent{at: at, target: target}
		if rest, found := strings.CutPrefix(target, "replica"); found {
			id, err := strconv.Atoi(rest)
			if err != nil {
				return nil, fmt.Errorf("bad replica id %q", rest)
			}
			ev.target, ev.id = "replica", id
		} else if rest, found := strings.CutPrefix(target, "tor"); found {
			id, err := strconv.Atoi(rest)
			if err != nil {
				return nil, fmt.Errorf("bad ToR id %q", rest)
			}
			ev.target, ev.id = "tor", id
		} else if rest, found := strings.CutPrefix(target, "spine"); found {
			id, err := strconv.Atoi(rest)
			if err != nil {
				return nil, fmt.Errorf("bad spine id %q", rest)
			}
			ev.target, ev.id = "spine", id
		} else if target != "leader" && target != "switch" {
			return nil, fmt.Errorf("unknown crash target %q", target)
		}
		out = append(out, ev)
	}
	return out, nil
}

func run(nodes int, modeStr string, duration time.Duration, rate float64, size int, seed int64, partitions int, backup, async bool, topo *p4ce.Topology, crashSpec, chaosName string, chaosSeed int64, doTrace bool, traceOut string, withMetrics bool, metricsEvery time.Duration, telemetryOut string, telemetryInterval time.Duration) error {
	var mode p4ce.Mode
	switch strings.ToLower(modeStr) {
	case "p4ce":
		mode = p4ce.ModeP4CE
	case "mu":
		mode = p4ce.ModeMu
	default:
		return fmt.Errorf("unknown mode %q", modeStr)
	}
	crashes, err := parseCrashes(crashSpec)
	if err != nil {
		return err
	}

	withTelemetry := telemetryOut != "" || metricsEvery > 0 || telemetryInterval > 0
	if metricsEvery > 0 {
		withMetrics = true // the periodic dump reads the registry
	}
	cl := p4ce.NewCluster(p4ce.Options{
		Nodes:             nodes,
		Mode:              mode,
		Seed:              seed,
		Partitions:        partitions,
		BackupFabric:      backup,
		AsyncReconfig:     async,
		Topology:          topo,
		EnableMetrics:     withMetrics,
		EnableTracing:     traceOut != "",
		EnableTelemetry:   withTelemetry,
		TelemetryInterval: telemetryInterval,
	})
	// Everything that touches the nodes — the workload and the node
	// crash script — schedules on the shard's own domain.
	sh := cl.Shard(0)
	var tracer *trace.Tracer
	if doTrace {
		tracer = cl.EnableTrace(os.Stderr, 1024, trace.Filter{})
	}
	leader, err := cl.RunUntilLeader(500 * time.Millisecond)
	if err != nil {
		return err
	}
	setupTime := cl.Now()
	fmt.Printf("cluster up: %d machines, %v mode, node %d leads after %v (accelerated=%v)\n",
		nodes, mode, leader.ID(), setupTime.Round(10*time.Microsecond), leader.Accelerated())
	// Every cluster is built on a fabric; the leaf-spine lines and crash
	// targets follow the -topology choice, so the one-switch testbed
	// prints and crashes what it always did.
	leafSpine := topo != nil
	if leafSpine {
		f := cl.Fabric()
		standbyNote := "no standby"
		if f.Standby() != nil {
			standbyNote = "standby cabled"
		}
		fmt.Printf("topology: leaf-spine, %d racks × %d spines, %s; leader in rack %d\n",
			f.Racks(), f.SpineCount(), standbyNote, leader.Rack())
	}

	// Periodic metrics dumps ride the telemetry ticker: every k-th
	// sample (k = -metrics-every / sampling interval) prints the
	// registry's delta since the previous dump as one compact JSON line.
	// The dump runs on the fabric domain and reads other domains'
	// instruments atomically; with -partitions > 1 that is mid-window,
	// so their values may be a few events ahead or behind.
	if metricsEvery > 0 {
		interval := time.Duration(cl.Telemetry().Interval())
		k := int(metricsEvery / interval)
		if k < 1 {
			k = 1
		}
		prev := cl.Metrics().Snapshot()
		ticks := 0
		cl.Telemetry().OnSample(func() {
			ticks++
			if ticks%k != 0 {
				return
			}
			cur := cl.Metrics().Snapshot()
			delta, err := cur.Sub(prev)
			if err != nil {
				fmt.Fprintln(os.Stderr, "p4ce-sim: metrics delta:", err)
				return
			}
			prev = cur
			blob, err := json.Marshal(delta)
			if err != nil {
				fmt.Fprintln(os.Stderr, "p4ce-sim: metrics delta:", err)
				return
			}
			fmt.Printf("[metrics %9v] %s\n", cl.Now().Round(10*time.Microsecond), blob)
		})
	}

	// Install the named chaos scenario, if any. Its horizon extends the
	// run so the faults and their recovery both fit.
	var chaosEng *chaos.Engine
	if chaosName != "" {
		logf := func(format string, args ...any) {
			// Fault callbacks run on their target's domain, where the
			// fabric clock isn't readable; the messages carry their own
			// local timestamps.
			fmt.Printf("[   chaos  ] %s\n", fmt.Sprintf(format, args...))
		}
		eng, horizon, err := cl.ApplyChaosScenario(chaosName, chaosSeed, logf)
		if err != nil {
			return err
		}
		chaosEng = eng
		if horizon > duration {
			duration = horizon
		}
		fmt.Printf("chaos: scenario %q armed (seed %d, horizon %v)\n", chaosName, chaosSeed, horizon)
	}

	// Schedule the failure script. Node crashes run on the shard's
	// domain (they touch node state); the switch crash runs on the
	// fabric domain, which Cluster.After schedules on.
	for _, ev := range crashes {
		ev := ev
		switch ev.target {
		case "leader":
			sh.After(ev.at, func() {
				if l := cl.Leader(); l != nil {
					fmt.Printf("[%9v] crash: leader (node %d)\n", sh.Now().Round(10*time.Microsecond), l.ID())
					l.Crash()
				}
			})
		case "switch":
			cl.After(ev.at, func() {
				fmt.Printf("[%9v] crash: programmable switch\n", cl.Now().Round(10*time.Microsecond))
				cl.CrashSwitch()
			})
		case "replica":
			sh.After(ev.at, func() {
				if ev.id < nodes {
					fmt.Printf("[%9v] crash: node %d\n", sh.Now().Round(10*time.Microsecond), ev.id)
					cl.Node(ev.id).Crash()
				}
			})
		case "tor":
			cl.After(ev.at, func() {
				if leafSpine && ev.id < cl.Fabric().Racks() {
					fmt.Printf("[%9v] crash: rack %d ToR\n", cl.Now().Round(10*time.Microsecond), ev.id)
					cl.CrashToR(ev.id)
				}
			})
		case "spine":
			cl.After(ev.at, func() {
				if leafSpine && ev.id < cl.Fabric().SpineCount() {
					fmt.Printf("[%9v] crash: spine %d\n", cl.Now().Round(10*time.Microsecond), ev.id)
					cl.CrashSpine(ev.id)
				}
			})
		}
	}

	// Offered load: Poisson arrivals, retried on leader changes.
	var (
		rng             = rand.New(rand.NewSource(seed))
		offered, acked  int
		rejected, stale int
		latencySum      time.Duration
		payload         = make([]byte, size)
		end             = cl.Now() + duration
	)
	if rate > 0 {
		var arrive func()
		arrive = func() {
			if sh.Now() >= end {
				return
			}
			offered++
			l := cl.Leader()
			if l == nil {
				stale++
			} else {
				at := sh.Now()
				if err := l.Propose(payload, func(err error) {
					if err != nil {
						rejected++
						return
					}
					acked++
					latencySum += sh.Now() - at
				}); err != nil {
					stale++
				}
			}
			gap := time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
			if gap <= 0 {
				gap = time.Nanosecond
			}
			sh.After(gap, arrive)
		}
		sh.After(0, arrive)
	}

	cl.Run(duration + 50*time.Millisecond)

	fmt.Printf("\n--- results after %v simulated ---\n", (cl.Now() - setupTime).Round(time.Millisecond))
	if l := cl.Leader(); l != nil {
		fmt.Printf("leader: node %d (view %d, accelerated=%v, spare-leg=%v)\n",
			l.ID(), l.Term(), l.Accelerated(), l.OnBackupRoute())
		fmt.Printf("commit index %d, leader CPU %.0f%% busy\n", l.CommitIndex(), l.CPUUtilization()*100)
		st := l.Stats()
		fmt.Printf("protocol: %d proposed, %d committed, %d view changes, %d fallbacks\n",
			st.Proposed, st.Committed, st.ViewChanges, st.Fallbacks)
	} else {
		fmt.Println("no live leader")
	}
	if rate > 0 {
		fmt.Printf("workload: %d offered, %d acked, %d failed, %d found no leader\n",
			offered, acked, rejected, stale)
		if acked > 0 {
			fmt.Printf("mean commit latency: %v\n", (latencySum / time.Duration(acked)).Round(10*time.Nanosecond))
		}
	}
	if chaosEng != nil {
		cs := chaosEng.Stats
		fmt.Printf("chaos: %d scripted drops, %d jittered sends, %d link flaps, %d partitions, %d node outages, %d switch reboots\n",
			cs.ScriptedDrops, cs.JitteredSends, cs.LinkFlaps, cs.Partitions, cs.NodeOutages, cs.SwitchReboots)
	}
	sw := cl.SwitchStats()
	fmt.Printf("switch program: %d scattered, %d ACKs absorbed, %d forwarded, %d NAKs passed\n",
		sw.Scattered, sw.AcksAggregated, sw.AcksForwarded, sw.NaksForwarded)
	fab := cl.FabricStats()
	fmt.Printf("switch fabric: %d in, %d out, %d multicast copies, %d punted to CPU\n",
		fab.IngressPackets, fab.EgressPackets, fab.Copies, fab.Punted)
	if leafSpine {
		f := cl.Fabric()
		liveSpines := 0
		for m := 0; m < f.SpineCount(); m++ {
			if !f.Spine(m).Crashed() {
				liveSpines++
			}
		}
		fmt.Printf("leaf-spine: %d partial-count ACKs crossed a spine, %d partials merged at the root, %d/%d spines live\n",
			sw.AcksUpForwarded, sw.PartialsAggregated, liveSpines, f.SpineCount())
		if r := f.AdoptedRack(); r >= 0 {
			fmt.Printf("leaf-spine: standby switch adopted rack %d's identity\n", r)
		}
	}
	for _, g := range cl.Groups() {
		fmt.Printf("group: leader %v, f=%d, %d replicas\n", g.Leader, g.F, len(g.Replicas))
	}
	if tracer != nil {
		fmt.Printf("\npacket trace summary:\n%s", tracer.Summary())
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		if err := cl.ExportTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("\nwrote causal trace to %s (open in https://ui.perfetto.dev)\n", traceOut)
	}
	if telemetryOut != "" {
		f, err := os.Create(telemetryOut)
		if err != nil {
			return err
		}
		openMetrics := strings.HasSuffix(telemetryOut, ".om") || strings.HasSuffix(telemetryOut, ".prom")
		if openMetrics {
			err = cl.ExportOpenMetrics(f)
		} else {
			err = cl.ExportTelemetryJSON(f)
		}
		if err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		format := "JSON"
		if openMetrics {
			format = "OpenMetrics"
		}
		alerts := cl.Telemetry().Alerts()
		fmt.Printf("\nwrote %s telemetry timeline to %s (%d alert transitions)\n", format, telemetryOut, len(alerts))
		for _, a := range alerts {
			fmt.Println("  " + a.String())
		}
	}
	if withMetrics {
		blob, err := json.MarshalIndent(cl.Metrics().Snapshot(), "", "  ")
		if err != nil {
			return err
		}
		fmt.Printf("\nmetrics snapshot:\n%s\n", blob)
	}
	return nil
}
