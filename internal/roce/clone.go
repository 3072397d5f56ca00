package roce

// Clone returns a deep copy of the packet: the payload is copied, so the
// clone is independent of the original's buffer. The switch's multicast
// fan-out does not use this (copies share the payload copy-on-write);
// it is for consumers that need to retain a packet past its frame's
// lifetime, such as the control-plane punt path.
func (p *Packet) Clone() *Packet {
	c := *p
	if p.Payload != nil {
		c.Payload = make([]byte, len(p.Payload))
		copy(c.Payload, p.Payload)
	}
	return &c
}

// OwnPayload replaces the (possibly shared or frame-aliasing) payload
// view with a private copy, making subsequent payload writes safe. A
// struct copy of a Packet shares its payload buffer: call OwnPayload on
// the copy before mutating payload bytes.
func (p *Packet) OwnPayload() {
	if len(p.Payload) == 0 {
		return
	}
	buf := make([]byte, len(p.Payload))
	copy(buf, p.Payload)
	p.Payload = buf
}
