package sim

// CPU models a host processor core as a serializing resource: submitted
// work items execute one after another, each occupying the core for its
// stated cost. It is how the simulation charges per-packet software
// overheads (building work requests, aggregating completions) that make
// the leader the bottleneck in Mu-style replication.
type CPU struct {
	k *Kernel
	Stage
}

// NewCPU returns an idle core on kernel k.
func NewCPU(k *Kernel) *CPU {
	return &CPU{k: k}
}

// DoArg queues a work item costing cost core-nanoseconds and runs
// fn(arg) when the item completes. Items run in submission order; a zero
// cost still serializes behind earlier work. Hot paths pass a persistent
// function plus a per-item argument instead of allocating a closure per
// work item.
func (c *CPU) DoArg(cost Time, fn func(any), arg any) {
	c.k.AtArg(c.Book(c.k.Now(), max(cost, 0)), fn, arg)
}

// Utilization returns the fraction of the interval [0, now] the core was
// busy, excluding work booked beyond now. It is 0 before any time has
// passed.
func (c *CPU) Utilization() float64 {
	now := c.k.Now()
	if now <= 0 {
		return 0
	}
	return float64(max(c.busy-c.Stage.Backlog(now), 0)) / float64(now)
}

// Backlog returns how much queued work (in core-nanoseconds) is pending.
func (c *CPU) Backlog() Time { return c.Stage.Backlog(c.k.Now()) }
