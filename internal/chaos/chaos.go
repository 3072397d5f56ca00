package chaos

import (
	"math/rand"
	"sync"
	"sync/atomic"

	"p4ce/internal/rnic"
	"p4ce/internal/sim"
	"p4ce/internal/simnet"
)

// Link is one full-duplex cable: the host (NIC) side and the fabric
// (switch) side. Faults that model the medium — loss, jitter, flaps,
// partitions — apply to both ports, since each port's Send path decides
// the fate of its own direction.
type Link struct {
	Name         string
	Host, Fabric *simnet.Port
}

// ports returns the link's two ends, skipping nil halves (a link may be
// described one-sided in tests).
func (l Link) ports() []*simnet.Port {
	var ps []*simnet.Port
	if l.Host != nil {
		ps = append(ps, l.Host)
	}
	if l.Fabric != nil {
		ps = append(ps, l.Fabric)
	}
	return ps
}

// NodeTarget is one machine the engine may take down: its primary
// cable (the target of link faults) and its NIC, whose power-off and
// reset model a reboot darkening every leg and tearing down every
// queue pair.
type NodeTarget struct {
	Name string
	Link Link
	NIC  *rnic.NIC
}

// SwitchTarget is one fabric switch the engine may take down. The
// crash/restore moves are closures so this package stays ignorant of
// the switch model; Rack and Spine identify the switch's role (one of
// them >= 0, or both -1 for a standby).
type SwitchTarget struct {
	Name           string
	Rack, Spine    int
	Crash, Restore func()
}

// FabricLink is one inter-switch cable of a leaf-spine core, tagged
// with the rack and spine it connects (Rack == -1 for a standby
// uplink).
type FabricLink struct {
	Link        Link
	Rack, Spine int
}

// Config wires an Engine to a testbed.
type Config struct {
	// Seed drives the engine's private random source. Faults draw from
	// it in simulation-event order, so replays are exact.
	Seed int64
	// Nodes lists the machines, in identifier order.
	Nodes []NodeTarget
	// Switches lists the fabric's ToRs, then its spines (one ToR and no
	// spine on the single-switch testbed). Scenarios marked Fabric pick
	// their victims here.
	Switches []SwitchTarget
	// InterLinks lists the fabric core's cables (ToR-spine, standby-
	// spine), for partitions and flaps that cut the core rather than an
	// access link.
	InterLinks []FabricLink
	// PowerOffSwitch and PowerOnSwitch power-cycle the programmable
	// switch (wiping its volatile state) and bring it back, including
	// whatever control-plane re-programming the owner performs. Both may
	// be nil, in which case RebootSwitch is a no-op.
	PowerOffSwitch, PowerOnSwitch func()
	// Logf, if non-nil, receives a line per injected fault event.
	Logf func(format string, args ...any)
}

// Stats counts injected faults. Under a partitioned kernel the
// counters are bumped from several scheduling domains, so the engine
// updates them atomically; read them only while the kernel is quiesced
// (between runs), where plain loads — and %+v formatting — are exact.
type Stats struct {
	ScriptedDrops uint64 // frames discarded by loss faults
	JitteredSends uint64 // frames given extra latency
	LinkFlaps     uint64 // down/up cycles completed
	Partitions    uint64 // partition windows opened
	NodeOutages   uint64 // replica crash/restart cycles started
	SwitchReboots uint64 // switch power cycles started
	SwitchCrashes uint64 // fabric switches crashed outright
}

// portMux fans a port's single LossFunc/DelayFunc slot out to any
// number of concurrently scheduled faults: loss deciders are OR-ed
// (first match wins), jitter contributions add up.
//
// Each mux carries its own random stream, seeded from the engine seed
// and the order the port was claimed in (a deterministic property of
// the scenario, not of the run). Faults on one port therefore draw in
// that port's frame order alone — under a partitioned kernel a shared
// stream would be consumed in goroutine-interleaving order, making
// drops depend on the partition count.
type portMux struct {
	rng   *rand.Rand
	loss  []simnet.LossFunc
	delay []simnet.DelayFunc
}

// Engine schedules faults on the simulation clock. Scenarios are
// applied while the kernel is quiesced; the fault closures then run on
// whichever scheduling domain owns the afflicted port, so the engine
// keeps no mutable state shared across closures beyond the atomic
// Stats and the mutex-guarded log.
type Engine struct {
	k       *sim.Kernel
	cfg     Config
	muxes   map[*simnet.Port]*portMux
	nextMux int64
	logMu   sync.Mutex

	// Stats counts what was actually injected.
	Stats Stats
}

// NewEngine builds an engine over the testbed described by cfg.
func NewEngine(k *sim.Kernel, cfg Config) *Engine {
	return &Engine{
		k:     k,
		cfg:   cfg,
		muxes: make(map[*simnet.Port]*portMux),
	}
}

// Nodes returns the machines the engine can target.
func (e *Engine) Nodes() []NodeTarget { return e.cfg.Nodes }

// Switch finds a fabric switch target by role: the ToR of the given
// rack, or (rack == -1) the given spine.
func (e *Engine) Switch(rack, spine int) (SwitchTarget, bool) {
	for _, t := range e.cfg.Switches {
		if t.Rack == rack && t.Spine == spine {
			return t, true
		}
	}
	return SwitchTarget{}, false
}

// RackUplinks returns the core cables hanging off rack r's ToR.
func (e *Engine) RackUplinks(r int) []Link {
	var ls []Link
	for _, fl := range e.cfg.InterLinks {
		if fl.Rack == r {
			ls = append(ls, fl.Link)
		}
	}
	return ls
}

func (e *Engine) logf(format string, args ...any) {
	if e.cfg.Logf != nil {
		e.logMu.Lock()
		e.cfg.Logf(format, args...)
		e.logMu.Unlock()
	}
}

// muxSeedMix decorrelates per-mux streams (splitmix64's golden-ratio
// increment).
const muxSeedMix = int64(-7046029254386353131)

// mux lazily claims a port's LossFunc/DelayFunc slots for the engine.
func (e *Engine) mux(p *simnet.Port) *portMux {
	m, ok := e.muxes[p]
	if !ok {
		e.nextMux++
		m = &portMux{rng: rand.New(rand.NewSource(e.cfg.Seed ^ (e.nextMux * muxSeedMix)))}
		e.muxes[p] = m
		p.SetLossFunc(func(frame []byte) bool {
			for _, f := range m.loss {
				if f(frame) {
					atomic.AddUint64(&e.Stats.ScriptedDrops, 1)
					return true
				}
			}
			return false
		})
		p.SetDelayFunc(func(frame []byte) sim.Time {
			var d sim.Time
			for _, f := range m.delay {
				d += f(frame)
			}
			if d > 0 {
				atomic.AddUint64(&e.Stats.JitteredSends, 1)
			}
			return d
		})
	}
	return m
}

// window wraps a loss decider so it is active only during
// [now+start, now+start+dur). The in-window test reads the clock of
// the port's own domain — the one the Send path runs on.
func (e *Engine) window(p *simnet.Port, start, dur sim.Time, f simnet.LossFunc) simnet.LossFunc {
	k := p.Kernel()
	from := e.k.Now() + start
	to := from + dur
	return func(frame []byte) bool {
		now := k.Now()
		if now < from || now >= to {
			return false
		}
		return f(frame)
	}
}

// LossBurst drops each frame leaving p with probability prob during the
// window [now+start, now+start+dur).
func (e *Engine) LossBurst(p *simnet.Port, start, dur sim.Time, prob float64) {
	m := e.mux(p)
	m.loss = append(m.loss, e.window(p, start, dur, func([]byte) bool {
		return m.rng.Float64() < prob
	}))
	e.logf("chaos: loss burst p=%.2f on %s during [%v,%v)", prob, p.Name(), start, start+dur)
}

// GEParams parameterizes a Gilbert-Elliott loss chain: two hidden
// states with different loss rates and per-frame transition
// probabilities, the classic model for bursty fabric loss.
type GEParams struct {
	LossGood, LossBad    float64 // loss probability in each state
	GoodToBad, BadToGood float64 // per-frame transition probabilities
}

// DefaultGEParams returns a mildly bursty channel: ~1% background loss
// with excursions into a 30%-loss bad state lasting a handful of
// frames.
func DefaultGEParams() GEParams {
	return GEParams{LossGood: 0.01, LossBad: 0.3, GoodToBad: 0.05, BadToGood: 0.25}
}

// GilbertElliott runs a two-state loss chain on p during the window.
// The chain steps once per frame, in event order, off the engine's
// seeded source.
func (e *Engine) GilbertElliott(p *simnet.Port, start, dur sim.Time, ge GEParams) {
	bad := false
	m := e.mux(p)
	m.loss = append(m.loss, e.window(p, start, dur, func([]byte) bool {
		if bad {
			if m.rng.Float64() < ge.BadToGood {
				bad = false
			}
		} else if m.rng.Float64() < ge.GoodToBad {
			bad = true
		}
		loss := ge.LossGood
		if bad {
			loss = ge.LossBad
		}
		return m.rng.Float64() < loss
	}))
	e.logf("chaos: gilbert-elliott loss on %s during [%v,%v)", p.Name(), start, start+dur)
}

// Jitter adds a uniform random extra latency in [0, max) to every frame
// leaving p during the window.
func (e *Engine) Jitter(p *simnet.Port, start, dur, max sim.Time) {
	if max <= 0 {
		return
	}
	from := e.k.Now() + start
	to := from + dur
	pk := p.Kernel()
	m := e.mux(p)
	m.delay = append(m.delay, func([]byte) sim.Time {
		now := pk.Now()
		if now < from || now >= to {
			return 0
		}
		return sim.Time(m.rng.Int63n(int64(max)))
	})
	e.logf("chaos: jitter ≤%v on %s during [%v,%v)", max, p.Name(), start, start+dur)
}

// FlapLink takes both ends of a cable down at now+start and back up
// downFor later — a transceiver losing carrier. In-flight frames toward
// a downed port are lost. Each end's state change is scheduled on that
// port's own domain (scenarios apply while the kernel is quiesced, so
// cross-domain scheduling is safe here), keeping the port's up flag
// single-domain under a partitioned kernel.
func (e *Engine) FlapLink(l Link, start, downFor sim.Time) {
	for i, p := range l.ports() {
		p := p
		first := i == 0
		pk := p.Kernel()
		pk.Schedule(start, func() {
			if first {
				e.logf("chaos: link %s down at %v", l.Name, pk.Now())
			}
			p.SetUp(false)
		})
		pk.Schedule(start+downFor, func() {
			p.SetUp(true)
			if first {
				e.logf("chaos: link %s up at %v", l.Name, pk.Now())
				atomic.AddUint64(&e.Stats.LinkFlaps, 1)
			}
		})
	}
}

// Partition blackholes every frame crossing the given links — in both
// directions — during the window, leaving the ports nominally up: the
// topology of a mis-programmed or congested core, not a cut cable.
func (e *Engine) Partition(links []Link, start, dur sim.Time) {
	drop := func([]byte) bool { return true }
	for _, l := range links {
		for _, p := range l.ports() {
			m := e.mux(p)
			m.loss = append(m.loss, e.window(p, start, dur, drop))
		}
	}
	e.k.Schedule(start, func() {
		atomic.AddUint64(&e.Stats.Partitions, 1)
		e.logf("chaos: partition of %d links at %v for %v", len(links), e.k.Now(), dur)
	})
}

// NodeOutage models a replica crash and restart: at now+start the
// machine's NIC powers off on every leg and resets — every queue pair
// is torn down with a flush error, exactly what a host reboot does —
// and downFor later it powers back on. The machine's software survives
// (the protocol layer is expected to re-dial its connections; mu's
// monitors do this on their own).
func (e *Engine) NodeOutage(n NodeTarget, start, downFor sim.Time) {
	// The NIC lives on the machine's shard domain: schedule the outage
	// there so a partitioned run mutates it from its own partition.
	k := n.NIC.Kernel()
	k.Schedule(start, func() {
		atomic.AddUint64(&e.Stats.NodeOutages, 1)
		e.logf("chaos: node %s outage at %v for %v", n.Name, k.Now(), downFor)
		n.NIC.SetPower(false)
		n.NIC.Reset()
	})
	k.Schedule(start+downFor, func() {
		e.logf("chaos: node %s back at %v", n.Name, k.Now())
		n.NIC.SetPower(true)
	})
}

// CrashSwitch powers a fabric switch off at now+start, for good — the
// failure the leaf-spine control plane exists to survive. Switches
// live on the fabric domain, so the crash is scheduled on the engine's
// own kernel. Recovery (spine reroute, standby rack adoption) is the
// fabric supervisor's job, not this engine's.
func (e *Engine) CrashSwitch(t SwitchTarget, start sim.Time) {
	if t.Crash == nil {
		return
	}
	e.k.Schedule(start, func() {
		atomic.AddUint64(&e.Stats.SwitchCrashes, 1)
		e.logf("chaos: switch %s crashed at %v", t.Name, e.k.Now())
		t.Crash()
	})
}

// RebootSwitch power-cycles the programmable switch at now+start,
// bringing it back downFor later via the configured hooks. The off hook
// is expected to wipe volatile switch state; the on hook to restore
// power and trigger control-plane re-programming.
func (e *Engine) RebootSwitch(start, downFor sim.Time) {
	if e.cfg.PowerOffSwitch == nil || e.cfg.PowerOnSwitch == nil {
		return
	}
	e.k.Schedule(start, func() {
		atomic.AddUint64(&e.Stats.SwitchReboots, 1)
		e.logf("chaos: switch power off at %v for %v", e.k.Now(), downFor)
		e.cfg.PowerOffSwitch()
	})
	e.k.Schedule(start+downFor, func() {
		e.logf("chaos: switch power on at %v", e.k.Now())
		e.cfg.PowerOnSwitch()
	})
}
