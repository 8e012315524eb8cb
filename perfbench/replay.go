package main

import (
	"runtime"
	"time"

	"repro/internal/snmp"
)

// replaySNMP replays the SNMP request PDUs a traced replica captured off
// the wire through the codec and the deployed agents, once each: Decode,
// then Encode of the decoded message, then the destination agent's Handle.
// Every call is a span in the snmp layer. It returns the heap allocations
// per Decode, counted on an untraced pass (0 when nothing was captured).
func replaySNMP(s *scenario, tr *tracer) float64 {
	if s.agent == nil {
		return 0
	}
	var pdus []capturedPDU
	for _, t := range s.taps {
		pdus = append(pdus, t.reqs...)
	}
	if len(pdus) == 0 {
		return 0
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, p := range pdus {
		if _, err := snmp.Decode(p.payload); err != nil {
			panic("perfbench: captured SNMP request does not decode: " + err.Error())
		}
	}
	runtime.ReadMemStats(&m1)
	msgs := make([]*snmp.Message, len(pdus))
	for i, p := range pdus {
		st := time.Now()
		msgs[i], _ = snmp.Decode(p.payload)
		tr.main.add("snmp", "decode", st, time.Now())
	}
	for _, msg := range msgs {
		st := time.Now()
		msg.Encode()
		tr.main.add("snmp", "encode", st, time.Now())
	}
	for _, p := range pdus {
		a := s.agent(p.dst)
		if a == nil {
			panic("perfbench: no agent deployed on " + string(p.dst))
		}
		st := time.Now()
		resp := a.Handle(p.payload)
		tr.main.add("snmp", "handle", st, time.Now())
		if resp == nil {
			panic("perfbench: agent on " + string(p.dst) + " did not answer a captured request")
		}
	}
	return float64(m1.Mallocs-m0.Mallocs) / float64(len(pdus))
}
