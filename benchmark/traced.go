package main

import (
	"sort"
	"strings"
	"time"

	"p4ce"
	"p4ce/internal/otrace"
)

// maxStageSamples bounds the traced operations kept for the stage
// decomposition. When the buffer fills, every other sample is dropped
// and the sampling stride doubles, so the kept set is a deterministic
// function of the run.
const maxStageSamples = 1 << 16

// traceProbe reads one traced cluster's counters on either side of the
// deterministic window and keeps a sample of its finished operations.
// The program records; the probe only reads, through Cluster.Metrics,
// Cluster.Tracer, Cluster.Telemetry and Node.CPUBusy.
type traceProbe struct {
	before counts
	delta  counts
	busyNs float64 // busiest modelled host core of each group, summed
	groups int

	collecting bool
	seen       int
	stride     int
	ops        []otrace.OpRecord

	retries  float64   // client retries (open-loop workloads)
	detectMs []float64 // first alert after the fault, per episode
	clearMs  []float64 // last alert cleared after the fault, per episode

	busy0 []time.Duration
}

// counts is a flat reading of the metrics registry: counters by name,
// histograms as name.count and name.sum.
type counts map[string]float64

func readCounts(cl *p4ce.Cluster) counts {
	snap := cl.Metrics().Snapshot()
	c := make(counts, len(snap.Counters)+2*len(snap.Histograms))
	for name, v := range snap.Counters {
		c[name] = float64(v)
	}
	for name, h := range snap.Histograms {
		c[name+".count"] = float64(h.Count)
		c[name+".sum"] = float64(h.SumNs)
	}
	return c
}

func nodeBusy(cl *p4ce.Cluster) []time.Duration {
	out := make([]time.Duration, len(cl.Nodes()))
	for i, n := range cl.Nodes() {
		out[i] = n.CPUBusy()
	}
	return out
}

// startTraceProbe is called between Run calls, when every scheduling
// domain is quiesced, at the start of the deterministic window.
func startTraceProbe(cl *p4ce.Cluster) *traceProbe {
	p := &traceProbe{
		before:     readCounts(cl),
		busy0:      nodeBusy(cl),
		groups:     cl.ShardCount(),
		collecting: true,
		stride:     1,
		ops:        make([]otrace.OpRecord, 0, maxStageSamples),
	}
	// OnFinish runs under the tracer's lock, so concurrent partitions
	// are serialized here.
	cl.Tracer().OnFinish(func(rec otrace.OpRecord) {
		if !p.collecting || rec.Noop {
			return
		}
		if p.seen%p.stride == 0 {
			if len(p.ops) == maxStageSamples {
				for i := 0; i < maxStageSamples/2; i++ {
					p.ops[i] = p.ops[2*i]
				}
				p.ops = p.ops[:maxStageSamples/2]
				p.stride *= 2
			}
			if p.seen%p.stride == 0 {
				p.ops = append(p.ops, rec)
			}
		}
		p.seen++
	})
	return p
}

// endWindow closes the deterministic window (again quiesced).
func (p *traceProbe) endWindow(cl *p4ce.Cluster) {
	p.collecting = false
	after := readCounts(cl)
	p.delta = make(counts, len(after))
	for name, v := range after {
		p.delta[name] = v - p.before[name]
	}
	busy := nodeBusy(cl)
	per := len(busy) / p.groups
	for g := 0; g < p.groups; g++ {
		var max time.Duration
		for i := g * per; i < (g+1)*per; i++ {
			if d := busy[i] - p.busy0[i]; d > max {
				max = d
			}
		}
		p.busyNs += float64(max)
	}
}

// readAlerts records how long after the fault the telemetry SLO engine
// first fired and last cleared.
func (p *traceProbe) readAlerts(cl *p4ce.Cluster, faultNs int64) {
	var detect, clear float64
	for _, a := range cl.Telemetry().Alerts() {
		if a.AtNs < faultNs {
			continue
		}
		ms := float64(a.AtNs-faultNs) / 1e6
		if a.Firing && detect == 0 {
			detect = ms
		}
		if !a.Firing {
			clear = ms
		}
	}
	p.detectMs = append(p.detectMs, detect)
	p.clearMs = append(p.clearMs, clear)
}

// mergeProbes adds up the episodes of a multi-cluster workload.
func mergeProbes(ps []*traceProbe) *traceProbe {
	// Busy time and the window both add up over episodes, so the group
	// count stays that of one cluster.
	m := &traceProbe{delta: counts{}, groups: ps[0].groups}
	for _, p := range ps {
		for name, v := range p.delta {
			m.delta[name] += v
		}
		m.busyNs += p.busyNs
		m.ops = append(m.ops, p.ops...)
		m.retries += p.retries
		m.detectMs = append(m.detectMs, p.detectMs...)
		m.clearMs = append(m.clearMs, p.clearMs...)
	}
	return m
}

// finish turns the readings into the per-layer metrics that come from
// the program's own counters and spans.
func (p *traceProbe) finish(r *result) metrics {
	ops := float64(r.detOps)
	d := p.delta
	m := metrics{
		"simnet.frames_per_op":          d["simnet.tx_frames"] / ops,
		"simnet.wire_bytes_per_op":      d["simnet.tx_bytes"] / ops,
		"simnet.tx_dropped":             d["simnet.tx_dropped"],
		"rnic.tx_packets_per_op":        d["rnic.tx_packets"] / ops,
		"rnic.retransmits":              d["rnic.retransmits"],
		"rnic.rto_fires":                d["rnic.rto_fires"],
		"rnic.credit_stalls":            d["rnic.credit_stalls"],
		"tofino.ingress_packets_per_op": d["tofino.ingress_packets"] / ops,
		"tofino.copies_per_op":          d["tofino.copies"] / ops,
		"tofino.dropped":                d["tofino.dropped"],
		"p4ce.scattered_per_op":         d["p4ce.scattered"] / ops,
		"p4ce.acks_absorbed_per_op":     d["p4ce.acks_absorbed"] / ops,
		"p4ce.acks_forwarded_per_op":    d["p4ce.acks_forwarded"] / ops,
		"p4ce.acks_up_per_op":           d["p4ce.acks_up_forwarded"] / ops,
		"p4ce.stale_ack_drops":          d["p4ce.stale_ack_drops"],
		"mu.view_changes":               d["mu.leader_changes"],
		"mu.fallbacks":                  d["mu.fallbacks"],
		"mu.ops_per_entry":              0,
		"mu.leader_cpu_busy_pct":        100 * p.busyNs / (float64(p.groups) * float64(r.detSimNs)),
		"facade.client_retries":         p.retries,
		"telemetry.alert_detect_ms":     0,
		"telemetry.alert_clear_ms":      0,
	}
	if n := d["mu.batch_ops_per_entry.count"]; n > 0 {
		m["mu.ops_per_entry"] = d["mu.batch_ops_per_entry.sum"] / n
	}
	if len(p.detectMs) > 0 {
		m["telemetry.alert_detect_ms"] = median(p.detectMs)
		m["telemetry.alert_clear_ms"] = median(p.clearMs)
	}

	// The six stages of the nearest-rank median traced operation. They
	// are one operation's successive boundary differences, so they sum
	// to its end-to-end latency exactly.
	sort.Slice(p.ops, func(i, j int) bool {
		if a, b := p.ops[i].E2E(), p.ops[j].E2E(); a != b {
			return a < b
		}
		return p.ops[i].Trace < p.ops[j].Trace
	})
	var med otrace.OpRecord
	if len(p.ops) > 0 {
		med = p.ops[(len(p.ops)+1)/2-1]
	}
	for i, name := range otrace.StageNames {
		m["stage."+strings.ReplaceAll(name, "-", "_")+"_ns"] = float64(med.Stage(i))
	}
	m["stage.e2e_ns"] = float64(med.E2E())
	return m
}
