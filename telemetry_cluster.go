package p4ce

import (
	"errors"
	"fmt"
	"io"

	swp4ce "p4ce/internal/p4ce"
	"p4ce/internal/telemetry"
)

// DefaultCommitP99SLO is the latency objective the telemetry SLO
// engine monitors per shard: interval p99 of commit latency must stay
// below this many nanoseconds (100 µs — an order of magnitude above
// the healthy p99, so only real degradation fires it).
const DefaultCommitP99SLO = 100_000

// ErrTelemetryDisabled reports an export from a cluster built without
// Options.EnableTelemetry.
var ErrTelemetryDisabled = errors.New("p4ce: cluster built without Options.EnableTelemetry")

// buildTelemetry wires the time-series pipeline: one sampler per
// scheduling domain, reading only instruments written by that domain —
// the property that keeps the timeline bit-identical at every
// partition count (see package telemetry). Called after every shard is
// built, so all instrument handles already exist.
func (c *Cluster) buildTelemetry() {
	cfg := telemetry.Config{}
	if c.opts.TelemetryInterval > 0 {
		cfg.Interval = simDuration(c.opts.TelemetryInterval)
	}
	tl := telemetry.New(cfg)
	m := c.kernel.Metrics()

	// Fabric domain (0): switch-side series. The dataplane Stats
	// structs are plain cumulative fields written by switch pipelines,
	// which all run on the fabric domain; RateFn's reset rule absorbs a
	// rebooting switch zeroing them.
	fd := tl.Domain(0, c.kernel)
	registerDP := func(label string, dp *swp4ce.Dataplane) {
		fd.RateFn(label+".scattered", func() uint64 { return dp.Stats.Scattered })
		fd.RateFn(label+".scatter_retransmits", func() uint64 { return dp.Stats.ScatterRetransmits })
		fd.RateFn(label+".acks_forwarded", func() uint64 { return dp.Stats.AcksForwarded })
		fd.RateFn(label+".acks_up_forwarded", func() uint64 { return dp.Stats.AcksUpForwarded })
	}
	for r := 0; r < c.fabric.Racks(); r++ {
		registerDP(fmt.Sprintf("rack%d", r), c.dps[c.fabric.OriginalToR(r)])
	}
	if sb := c.fabric.Standby(); sb != nil {
		registerDP("standby", c.dps[sb])
	}

	// Shard domains (1+s): the consensus view. Every instrument here is
	// written only by shard s's machines, which all live on domain 1+s.
	for s, sh := range c.shards {
		d := tl.Domain(1+s, sh.kernel)
		label := fmt.Sprintf("shard%d", s)
		commits := m.Counter(fmt.Sprintf("mu.shard%d.committed", s))
		proposed := m.Counter(fmt.Sprintf("mu.shard%d.proposed", s))
		lat := m.Histogram(fmt.Sprintf("mu.shard%d.commit_latency_ns", s))
		retx := m.Counter(fmt.Sprintf("rnic.shard%d.retransmits", s))
		rto := m.Counter(fmt.Sprintf("rnic.shard%d.rto_fires", s))

		d.Rate(label+".commits", commits)
		d.Rate(label+".proposed", proposed)
		d.Quantile(label+".commit_latency_ns", lat)
		d.Rate(label+".retransmits", retx)
		d.Rate(label+".rto_fires", rto)
		nodes := sh.nodes
		d.GaugeFn(label+".commit_index", func() int64 {
			var max uint64
			for _, n := range nodes {
				if ci := n.CommitIndex(); ci > max {
					max = ci
				}
			}
			return int64(max)
		})

		// The three SLOs, all gated on the shard's first commit so a
		// cluster still electing its first leader is not an "outage".
		d.Objective(telemetry.ObjectiveSpec{
			Name: label + "/availability", Kind: telemetry.Availability,
			Series: label + ".commits", Gate: commits.Value,
		})
		d.Objective(telemetry.ObjectiveSpec{
			Name: label + "/retransmit-rate", Kind: telemetry.RateAbove,
			Series: label + ".retransmits", Threshold: 1, Gate: commits.Value,
		})
		d.Objective(telemetry.ObjectiveSpec{
			Name: label + "/commit-p99", Kind: telemetry.QuantileAbove,
			Series: label + ".commit_latency_ns", Threshold: DefaultCommitP99SLO,
			Gate: commits.Value,
		})
	}

	tl.Start()
	c.tl = tl
}

// Telemetry returns the timeline, or nil without Options.EnableTelemetry.
func (c *Cluster) Telemetry() *telemetry.Timeline { return c.tl }

// ExportTelemetryJSON writes the full timeline and merged alert log as
// deterministic JSON — byte-identical for the same options and seed at
// every partition count.
func (c *Cluster) ExportTelemetryJSON(w io.Writer) error {
	if c.tl == nil {
		return ErrTelemetryDisabled
	}
	return c.tl.WriteJSON(w)
}

// ExportOpenMetrics writes every retained sample as OpenMetrics text
// (terminated by "# EOF") — byte-identical for the same options and
// seed at every partition count.
func (c *Cluster) ExportOpenMetrics(w io.Writer) error {
	if c.tl == nil {
		return ErrTelemetryDisabled
	}
	return c.tl.WriteOpenMetrics(w)
}
