package rnic

import "p4ce/internal/simnet"

// Access flags for registered memory regions.
type Access uint8

// Permission bits.
const (
	AccessRemoteRead Access = 1 << iota
	AccessRemoteWrite
)

// MR is a registered memory region exposed over RDMA. One-sided
// operations against it are authorized by the R_key and the region's
// permission set, and — following Mu's fencing technique — writes can be
// restricted to a single remote endpoint (the machine the replica
// currently believes is the leader).
type MR struct {
	nic  *NIC
	rkey uint32
	base uint64 // virtual base address
	buf  []byte
	perm Access

	// writerRestricted + allowedWriters implement Mu's permission
	// switching: when restricted, only the listed addresses may write.
	// P4CE replicas list both the current leader (direct path) and the
	// switch (accelerated path).
	writerRestricted bool
	allowedWriters   []simnet.Addr

	// onWrite, if set, is invoked after an inbound write lands. It models
	// the replica's polling thread observing new bytes in its log.
	onWrite func(offset, length int)
}

// RegisterMR exposes buf at virtual address base with the given
// permissions and returns the region. The R_key is drawn from the
// kernel's deterministic random source, mirroring the randomly-generated
// keys the paper describes (Table I).
func (n *NIC) RegisterMR(base uint64, buf []byte, perm Access) *MR {
	var rkey uint32
	for {
		rkey = n.k.Rand().Uint32()
		if _, dup := n.mrs[rkey]; !dup && rkey != 0 {
			break
		}
	}
	mr := &MR{nic: n, rkey: rkey, base: base, buf: buf, perm: perm}
	n.mrs[rkey] = mr
	return mr
}

// RKey returns the region's authorization key.
func (mr *MR) RKey() uint32 { return mr.rkey }

// Base returns the region's virtual base address.
func (mr *MR) Base() uint64 { return mr.base }

// Len returns the region's length in bytes.
func (mr *MR) Len() int { return len(mr.buf) }

// Bytes exposes the backing storage (the "host memory" the region maps).
func (mr *MR) Bytes() []byte { return mr.buf }

// SetOnWrite installs the inbound-write notification hook.
func (mr *MR) SetOnWrite(fn func(offset, length int)) { mr.onWrite = fn }

// RestrictWriter permits remote writes only from the listed addresses.
// This is the permission switch Mu uses to fence deposed leaders.
func (mr *MR) RestrictWriter(addrs ...simnet.Addr) {
	mr.writerRestricted = true
	mr.allowedWriters = append([]simnet.Addr(nil), addrs...)
}

// AllowAnyWriter removes the writer restriction (permissions alone still
// apply).
func (mr *MR) AllowAnyWriter() { mr.writerRestricted = false }

// AllowedWriters returns the fencing state (tests and diagnostics).
func (mr *MR) AllowedWriters() ([]simnet.Addr, bool) {
	return mr.allowedWriters, mr.writerRestricted
}

// checkWrite validates an inbound write of length n at virtual address va
// from the given source.
func (mr *MR) checkWrite(from simnet.Addr, va uint64, n int) bool {
	if mr.perm&AccessRemoteWrite == 0 {
		return false
	}
	if mr.writerRestricted {
		allowed := false
		for _, a := range mr.allowedWriters {
			if a == from {
				allowed = true
				break
			}
		}
		if !allowed {
			return false
		}
	}
	return mr.contains(va, n)
}

// checkRead validates an inbound read of length n at virtual address va.
func (mr *MR) checkRead(va uint64, n int) bool {
	if mr.perm&AccessRemoteRead == 0 {
		return false
	}
	return mr.contains(va, n)
}

func (mr *MR) contains(va uint64, n int) bool {
	if va < mr.base {
		return false
	}
	off := va - mr.base
	return off+uint64(n) <= uint64(len(mr.buf))
}

// write copies data into the region at virtual address va (bounds already
// validated) and fires the notification hook.
func (mr *MR) write(va uint64, data []byte) {
	off := int(va - mr.base)
	copy(mr.buf[off:], data)
	if mr.onWrite != nil {
		mr.onWrite(off, len(data))
	}
}

// read copies n bytes out of the region at virtual address va.
func (mr *MR) read(va uint64, n int) []byte {
	off := int(va - mr.base)
	out := make([]byte, n)
	copy(out, mr.buf[off:off+n])
	return out
}

// lookupMR resolves an R_key.
func (n *NIC) lookupMR(rkey uint32) (*MR, bool) {
	mr, ok := n.mrs[rkey]
	return mr, ok
}
