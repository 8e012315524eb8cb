package main

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/nttcp"
	"repro/internal/snmp"
)

// packetLedger is the network-wide packet account at the horizon, summed
// over every network of the system (a cross-shard packet is sent on one
// network and delivered on another).
type packetLedger struct {
	sent, delivered uint64
	drops           [nReasons]uint64
	queued          uint64 // packets sitting in egress queues
}

func (s *scenario) packetLedger() packetLedger {
	var l packetLedger
	for i, nw := range s.nets {
		l.sent += nw.PacketsSent
		l.delivered += nw.PacketsDelivered
		for r, n := range s.drops[i] {
			l.drops[r] += n
		}
		for _, n := range nw.Nodes() {
			for _, ifc := range n.Ifaces() {
				l.queued += uint64(ifc.QueueLen())
			}
		}
	}
	return l
}

func (l packetLedger) dropped() uint64 {
	var n uint64
	for _, d := range l.drops {
		n += d
	}
	return n
}

// inFlight is the residue of the account: packets neither delivered nor
// dropped for a named reason.
func (l packetLedger) inFlight() int64 {
	return int64(l.sent) - int64(l.delivered) - int64(l.dropped())
}

// check enforces packet conservation: sent = delivered + dropped(reason) +
// in flight, where the in-flight residue can never be smaller than what
// the egress queues hold. A packet that is queued yet already counted as
// delivered or dropped, or one delivered twice, breaks it.
func (l packetLedger) check() error {
	if f := l.inFlight(); f < int64(l.queued) {
		return fmt.Errorf("packet conservation: %d sent - %d delivered - %d dropped leaves %d in flight, but %d are queued",
			l.sent, l.delivered, l.dropped(), f, l.queued)
	}
	return nil
}

// trapLedger accounts every trap the benchmark offered to the director
// tree.
type trapLedger struct {
	offered                         uint64 // OfferTrap calls the benchmark made
	leafIn, leafLost, leafForwarded uint64 // summed over the leaves
	rootIn, rootLost                uint64
}

// check enforces the two trap identities: every offered trap was taken in
// or lost by a leaf, and every trap a leaf forwarded was taken in or lost
// by the root.
func (t trapLedger) check() error {
	if t.offered != t.leafIn+t.leafLost {
		return fmt.Errorf("trap ledger: offered %d != leaf in %d + leaf lost %d", t.offered, t.leafIn, t.leafLost)
	}
	if t.rootIn+t.rootLost != t.leafForwarded {
		return fmt.Errorf("trap ledger: root in %d + root lost %d != leaf forwarded %d", t.rootIn, t.rootLost, t.leafForwarded)
	}
	return nil
}

// segTap observes one shared segment: the wire octets of monitoring frames
// (SNMP on 161/162, NTTCP on its port) and, on traced runs, a sample of
// SNMP request PDUs for the codec replay.
type segTap struct {
	monitorOctets uint64
	snmpPDUs      uint64
	capture       bool
	reqs          []capturedPDU
}

type capturedPDU struct {
	dst     netsim.Addr
	payload []byte
}

// maxCapture bounds the PDUs one segment keeps for replay.
const maxCapture = 256

func (t *segTap) observe(f netsim.Frame) {
	p := f.Pkt
	isSNMP := p.SrcPort == snmp.AgentPort || p.DstPort == snmp.AgentPort ||
		p.SrcPort == snmp.TrapPort || p.DstPort == snmp.TrapPort
	if !isSNMP && p.SrcPort != nttcp.Port && p.DstPort != nttcp.Port {
		return
	}
	t.monitorOctets += uint64(f.WireBytes)
	if !isSNMP {
		return
	}
	t.snmpPDUs++
	if t.capture && p.DstPort == snmp.AgentPort && len(t.reqs) < maxCapture && len(p.Payload) > 0 {
		t.reqs = append(t.reqs, capturedPDU{dst: p.Dst, payload: append([]byte(nil), p.Payload...)})
	}
}
