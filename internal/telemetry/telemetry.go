package telemetry

import (
	"fmt"

	"p4ce/internal/metrics"
	"p4ce/internal/sim"
)

// DefaultInterval is the sampling period in simulated time.
const DefaultInterval = 100 * sim.Microsecond

// DefaultCapacity is how many samples each series ring retains. At the
// default interval that is ~410 ms of history, longer than any chaos
// horizon, so in practice nothing wraps.
const DefaultCapacity = 4096

// Config parameterizes a Timeline.
type Config struct {
	// Interval is the sampling period in simulated time.
	// 0 means DefaultInterval.
	Interval sim.Time
	// Capacity is the per-series ring capacity in samples.
	// 0 means DefaultCapacity.
	Capacity int
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = DefaultInterval
	}
	if c.Capacity <= 0 {
		c.Capacity = DefaultCapacity
	}
	return c
}

// Timeline is the top-level collector: one sampler Domain per
// scheduling domain, a shared interval, and the merged alert log.
// Build it fully (Register* + Objective), then Start it once before
// running the kernel(s).
type Timeline struct {
	cfg     Config
	domains []*Domain // sorted by domain ID (registration enforces order)
	started bool
	onTick  func() // optional extra hook on domain 0's tick (e.g. -metrics dumps)
}

// New returns an empty timeline.
func New(cfg Config) *Timeline {
	return &Timeline{cfg: cfg.withDefaults()}
}

// Interval returns the sampling period.
func (t *Timeline) Interval() sim.Time { return t.cfg.Interval }

// Domain returns the sampler for scheduling domain id, creating it
// bound to kernel k on first use. Domains must be created in ascending
// id order (the cluster wires fabric=0 first, then each shard), which
// keeps every export deterministically ordered.
func (t *Timeline) Domain(id int, k *sim.Kernel) *Domain {
	for _, d := range t.domains {
		if d.id == id {
			return d
		}
	}
	if t.started {
		panic("telemetry: Domain after Start")
	}
	if n := len(t.domains); n > 0 && t.domains[n-1].id > id {
		panic("telemetry: domains must be registered in ascending id order")
	}
	d := &Domain{id: id, k: k, tl: t}
	t.domains = append(t.domains, d)
	return d
}

// OnSample registers fn to run on the fabric domain's ticker after each
// sample — the hook behind p4ce-sim's periodic -metrics dumps, sharing
// the telemetry ticker instead of adding a second event source.
func (t *Timeline) OnSample(fn func()) { t.onTick = fn }

// Start preallocates every ring and arms one ticker per domain. Call
// once, after all series and objectives are registered and before the
// kernels run.
func (t *Timeline) Start() {
	if t.started {
		panic("telemetry: double Start")
	}
	t.started = true
	for _, d := range t.domains {
		d.start(t.cfg)
	}
}

// Stop disarms every sampler (the rings keep their data for export).
func (t *Timeline) Stop() {
	for _, d := range t.domains {
		if d.ticker != nil {
			d.ticker.Stop()
			d.ticker = nil
		}
	}
}

// Domain samples the instruments owned by one scheduling domain and
// evaluates that domain's objectives. All its methods must be called
// from its own domain (construction happens before the kernels run, so
// registration is safe anywhere).
type Domain struct {
	id     int
	k      *sim.Kernel
	tl     *Timeline
	series []*series
	objs   []*objective
	alerts []Alert
	ticker *sim.Ticker
	ticks  int64 // samples taken so far
}

func (d *Domain) addSeries(s *series) *series {
	if d.tl.started {
		panic("telemetry: series registered after Start")
	}
	for _, have := range d.series {
		if have.name == s.name {
			panic(fmt.Sprintf("telemetry: duplicate series %q in domain %d", s.name, d.id))
		}
	}
	d.series = append(d.series, s)
	return s
}

// Rate registers a counter series: each sample is the per-interval
// delta of c. Nil-safe: a nil counter samples as a constant zero.
func (d *Domain) Rate(name string, c *metrics.Counter) {
	d.addSeries(&series{name: name, kind: kindRate, counter: c})
}

// RateFn registers a counter series read through fn (for cumulative
// stats that are plain struct fields rather than metrics handles, e.g.
// switch dataplane counters). A reset — fn going backwards, as after a
// switch reboot — is treated as a restart from zero, per the usual
// counter semantics: the sample is the new cumulative value.
func (d *Domain) RateFn(name string, fn func() uint64) {
	d.addSeries(&series{name: name, kind: kindRate, fn: fn})
}

// GaugeFn registers an instantaneous series: each sample is fn().
func (d *Domain) GaugeFn(name string, fn func() int64) {
	d.addSeries(&series{name: name, kind: kindGauge, gfn: fn})
}

// Quantile registers a histogram series: each sample reduces the
// per-interval bucket deltas of h to (count, p50, p99) via
// metrics.BucketQuantile.
func (d *Domain) Quantile(name string, h *metrics.Histogram) {
	d.addSeries(&series{name: name, kind: kindQuantile, hist: h})
}

func (d *Domain) start(cfg Config) {
	for _, s := range d.series {
		s.alloc(cfg.Capacity)
	}
	for _, o := range d.objs {
		o.bind(d)
	}
	if d.alerts == nil {
		d.alerts = make([]Alert, 0, 64)
	}
	d.ticker = d.k.NewTicker(cfg.Interval, d.sample)
}

// sample is the per-tick hot path: read every instrument, push one
// value per column, evaluate objectives. Zero heap allocations in
// steady state.
func (d *Domain) sample() {
	d.ticks++
	for _, s := range d.series {
		s.sample(d.ticks)
	}
	for _, o := range d.objs {
		o.step(d)
	}
	if d.id == 0 && d.tl.onTick != nil {
		d.tl.onTick()
	}
}
