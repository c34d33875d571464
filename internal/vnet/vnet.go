// Package vnet models the Dom0 software switch and the traffic the §7
// use cases push through it: a bridge with per-host queueing and a
// finite backlog (whose overflow produces the ARP drops and long ping
// tail of Fig. 16b), plus simple ping semantics.
package vnet

import (
	"errors"
	"fmt"

	"lightvm/internal/costs"
	"lightvm/internal/sim"
)

// PacketKind classifies packets coarsely.
type PacketKind int

// Packet kinds.
const (
	PktARP PacketKind = iota
	PktICMPEcho
	PktICMPReply
	PktUDP
	PktTCP
)

var pktNames = [...]string{"arp", "icmp-echo", "icmp-reply", "udp", "tcp"}

func (k PacketKind) String() string {
	if int(k) < len(pktNames) {
		return pktNames[k]
	}
	return fmt.Sprintf("pkt(%d)", int(k))
}

// Packet is a frame crossing the bridge.
type Packet struct {
	Src, Dst string
	Kind     PacketKind
	Size     int // bytes
	Seq      uint64
}

// Handler consumes packets delivered to a port.
type Handler func(Packet)

// Counters tracks switch activity.
type Counters struct {
	Forwarded uint64
	Dropped   uint64
}

// ErrNoPort is returned when sending to a non-existent port with no
// queueing allowed.
var ErrNoPort = errors.New("vnet: no such port")

// Switch is the Dom0 software bridge. Ports are attached by the
// hotplug mechanism (it implements devd.PortAttacher); packets for
// ports that exist but have no handler yet (guest still booting) are
// held in a bounded backlog and flushed when the handler appears —
// beyond the backlog limit, packets are dropped (§7.2: "our Linux
// bridge is overloaded and starts dropping packets (mostly ARP
// packets)").
type Switch struct {
	Clock      *sim.Clock
	QueueLimit int

	ports   map[string]Handler
	waiting map[string][]Packet
	backlog int
	Count   Counters
}

// NewSwitch creates a bridge with the default backlog limit.
func NewSwitch(clock *sim.Clock) *Switch {
	return &Switch{
		Clock:      clock,
		QueueLimit: costs.BridgeQueueLimit,
		ports:      make(map[string]Handler),
		waiting:    make(map[string][]Packet),
	}
}

// AttachPort implements devd.PortAttacher: the port exists but has no
// handler until the guest's stack comes up.
func (s *Switch) AttachPort(name string) error {
	if _, dup := s.ports[name]; dup {
		return fmt.Errorf("vnet: port %q already attached", name)
	}
	s.ports[name] = nil
	return nil
}

// DetachPort implements devd.PortAttacher.
func (s *Switch) DetachPort(name string) error {
	if _, ok := s.ports[name]; !ok {
		return fmt.Errorf("%w: %q", ErrNoPort, name)
	}
	delete(s.ports, name)
	s.backlog -= len(s.waiting[name])
	delete(s.waiting, name)
	return nil
}

// SetHandler installs the guest-side receive function and flushes any
// queued packets to it.
func (s *Switch) SetHandler(name string, h Handler) error {
	if _, ok := s.ports[name]; !ok {
		return fmt.Errorf("%w: %q", ErrNoPort, name)
	}
	s.ports[name] = h
	queued := s.waiting[name]
	delete(s.waiting, name)
	s.backlog -= len(queued)
	for _, pkt := range queued {
		s.deliver(h, pkt)
	}
	return nil
}

// Ports reports attached port count.
func (s *Switch) Ports() int { return len(s.ports) }

// Backlog reports packets currently queued for handler-less ports.
func (s *Switch) Backlog() int { return s.backlog }

func (s *Switch) deliver(h Handler, pkt Packet) {
	s.Clock.Sleep(costs.BridgeForward)
	s.Count.Forwarded++
	if h != nil {
		h(pkt)
	}
}

// Send forwards a packet to its destination port. It returns true if
// the packet was delivered or queued, false if it was dropped (port
// missing or backlog full).
func (s *Switch) Send(pkt Packet) bool {
	h, ok := s.ports[pkt.Dst]
	if !ok {
		s.Count.Dropped++
		return false
	}
	if h == nil {
		if s.backlog >= s.QueueLimit {
			s.Count.Dropped++
			return false
		}
		s.waiting[pkt.Dst] = append(s.waiting[pkt.Dst], pkt)
		s.backlog++
		return true
	}
	s.deliver(h, pkt)
	return true
}

// Ping sends an echo request from src to dst and reports whether a
// reply arrived immediately (the common case when the guest handler
// replies synchronously). The caller measures RTT with the clock.
func (s *Switch) Ping(src, dst string, seq uint64) bool {
	replied := false
	// Install a transient reply detector on the source port.
	prev := s.ports[src]
	if _, ok := s.ports[src]; !ok {
		_ = s.AttachPort(src)
	}
	s.ports[src] = func(p Packet) {
		if p.Kind == PktICMPReply && p.Seq == seq {
			replied = true
		}
		if prev != nil {
			prev(p)
		}
	}
	ok := s.Send(Packet{Src: src, Dst: dst, Kind: PktICMPEcho, Size: 64, Seq: seq})
	s.ports[src] = prev
	return ok && replied
}
