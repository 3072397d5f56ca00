// Package sim provides the deterministic discrete-event simulation
// kernel that every other subsystem runs on: a virtual clock, an event
// queue, cancellable timers, a seeded random source, and Stage, the
// FIFO server behind every serializing resource. CPU is a Stage that
// runs a callback when each work item completes, modelling host
// processing costs; link transmit sides and switch parsers book their
// own Stages. It is the bottom of the layer stack — simnet builds links
// on it, devices (rnic, tofino) build on those, and everything above is
// ordinary code scheduled on the kernel's clock.
//
// There is one scheduler: a Group of scheduling domains (one Kernel
// each: a clock, a sequence counter, a random stream) packed onto one or
// more partitions. NewKernel returns the only domain of a one-partition
// group, so a standalone kernel and a cluster's domains are the same
// code. Callers schedule closures and then drive the group with Run,
// RunUntil or Step, from any of its kernels. Separate groups are fully
// independent, so tests and benchmarks may run many simulations in
// parallel.
//
// # Determinism
//
// Events execute strictly by (time, domain, lane, seq) — plain (time,
// lane, seq) FIFO on a standalone kernel, where every event carries
// domain 0 — and the only random source is each domain's seeded one, so
// identical builds and seeds replay identically at any partition count;
// Processed() is the fingerprint tests compare. The one rule components
// must follow: never iterate a Go map while emitting events — sort the
// keys first.
//
// Every event is keyed in lane 0 except a SendTo addressed to the
// sending kernel itself, which is keyed in lane 1, the arrival lane: it
// runs after every lane-0 event its domain has for that instant, even
// one pushed after the send, and before any event of the next domain.
// That is where a delivery from another domain sorts relative to the
// receiving domain's events, so a device that acts at delivery acts at
// the same place in the order whichever domain sent the frame (the
// switch model's inline ingress rests on it). Same-domain sends never
// cross partitions, so the lane changes nothing the partition layout
// could see.
//
// Processed counts heap entries, not callbacks. With a metrics registry
// attached, every callback the kernel runs also bumps a
// sim.events.<site> counter named after it (for example
// sim.events.tofino.(*Switch).egressEmit), so a run's event budget can
// be read by site; without one, firing pays a single nil check. The
// counters' sum exceeds Processed by the linked events that ran right
// behind their predecessor (see The event queue).
//
// # Domains
//
// A domain's clock and sequence counter advance only through its own
// events, so an event schedules on the domain it runs on and reaches
// another through SendTo (frames, at least one lookahead ahead across
// partitions) or Call (control hops, always one lookahead ahead).
// Scheduling on a different domain from a running event panics, naming
// both; while the group is quiesced — before and between runs — any
// domain may be scheduled on.
//
// # The event queue
//
// Each partition keeps its pending events in an implicit 4-ary min-heap
// of value slots {at, 2*dom+lane, seq, *event} (queue.go): comparisons
// read the key from the slice without touching the event record, sifting
// moves a hole instead of swapping, and the run loops (the
// one-partition Group loop, a partition's window) share one function
// that looks at the queue top once per event. The key order is
// a strict total order, so pop order is a function of the keys alone:
// the heap's arity, compaction and the order in which cross-partition
// events are drained are all invisible to a seeded run. A stopped Timer
// is only marked canceled; the record leaves the queue when it reaches
// the top or when compaction sweeps it, and the generation counter in
// the record — bumped on every recycle — is all a Timer handle needs to
// know whether it still refers to a queued event.
//
// A run of adjacent keys takes one heap entry. A push is linked behind
// its domain's previous push, on that record's next field, when that
// push is still queued (neither fired nor canceled) and the new one has
// the same instant, the same lane, the next seq and the same run
// kernel: a multicast's copies leaving together, their deliveries to
// one shard, the shard's ACKs back. Nothing can sort between two
// adjacent keys, so the link keeps the total order; consecutive seqs in
// different lanes are not adjacent, because every later lane-0 event of
// the instant sorts between them. The heap slot is the chain's cursor:
// firing a member rewrites the slot in place to its successor's key,
// which is still the minimum. The one event that can run between two members is
// one the first member's run domain pushes for the same instant under
// a smaller domain (a chain keyed on a shard's domain that runs on the
// fabric's); it sorts before the successor and sifts above it like any
// other push. Cross-partition events are linked the same way when the
// coordinator drains them, against the sending domain's last record
// drained into the same partition, so chains do not depend on the
// partition layout. A canceled
// member is skipped when it reaches the top, and compaction cuts a
// chain at a canceled member into two entries; Pending and the
// compaction trigger count records, not entries.
//
// Processed counts every event that runs, except a linked one that is
// the next event to run on its domain after the record it was linked
// behind — so a chain counts once, and a member that an interposed
// same-instant event cut off counts again. The rule reads only keys and
// each domain's run order, which no partition count and no choice
// between Run and Step can change, so neither can the count.
//
// # Ownership and pooling
//
// The kernel is built for a zero-allocation steady state: event records
// are recycled through a FreeList (so schedule/cancel churn such as a
// NIC re-arming its retransmission timer on every ACK does not grow the
// heap), ScheduleArg/AtArg let hot paths run a persistent callback with
// a per-call argument instead of allocating a closure, and the Buffers
// pool recycles wire frames and payload scratch. The pool belongs to the
// partition, next to the event free list: every domain packed into a
// partition shares it, so a frame released by the domain that consumed
// it is the next one its sender obtains. Its size classes step by an
// eighth (eight per doubling, 64 B to 4 MiB), so a buffer holding more
// than 64 B wastes at most an eighth of it, and each doubling keeps at
// most 4 MiB of free buffers. Get zeroes a recycled buffer; GetUnzeroed,
// for a writer that fills every byte (a frame marshal, an entry
// encode), and Clone, for a caller that copies a whole slice into the
// pool, skip that zero-fill. A buffer obtained from Buffers().Get,
// GetUnzeroed or Clone belongs to the taker until it calls Put; putting
// a buffer that someone else still aliases is the pool's one cardinal
// sin (see the roce payload contract).
//
// FreeList is the one free list for fixed-size records: the kernel's
// event records and the device layers' in-flight bookkeeping (work
// requests, deliveries, pipeline jobs, proposals) all recycle through
// one. It is a plain stack rather than a sync.Pool, so reuse order is a
// function of the run alone.
package sim
