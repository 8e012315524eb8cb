package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/hifi"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/nttcp"
	"repro/internal/sim"
	"repro/internal/topo"
)

// rtdsHifi is the paper's HiPer-D testbed carrying the RTDS streams, with
// the high-fidelity monitor's test sequencer measuring every
// server-to-client path in burst mode while on/off transients load the
// 10 Mb/s Ethernet (the shape of E3 and E15). Large frames: the work is
// in the kernel, the netsim frame path and nttcp. No SNMP, no director.
var rtdsHifi = &workload{
	name:    "rtds_hifi",
	shards:  1,
	horizon: rtdsHorizon,
	build:   buildRTDS,
}

const (
	rtdsHorizon               = 60 * time.Second
	rtdsPort      netsim.Port = 6001 // RTDS track updates
	transientPort netsim.Port = 9
	// rtdsBurst is the sequencer's burst length in messages; T, the time
	// one path measurement takes, is about rtdsBurst·P.
	rtdsBurst = 8
	// rtdsWarmup is when the manager starts reading: after the
	// sequencer's first full sweep, so a cold database is not counted as
	// senescence.
	rtdsWarmup = 10 * time.Second
)

func buildRTDS(seed int64, _ int, horizon time.Duration, tr *tracer) *scenario {
	sd := newSeeds(seed)
	k := sim.NewKernel()
	st := time.Now()
	h := topo.BuildHiPerD(k, sd.next())
	s := &scenario{k: k, nets: []*netsim.Network{h.Net}, segs: []*netsim.SharedSegment{h.FDDI, h.Eth}}
	s.setupTopo = tr.phase("topo", "setup.topo", st)

	st = time.Now()
	// RTDS: each server sends L=8192 B every P=30 ms to its clients, two
	// per server in pool order. Two of the six land on the 10 Mb/s
	// Ethernet; the rest are behind the ATM switch.
	for i, c := range h.Clients[:6] {
		netsim.NewSink(c, rtdsPort)
		(&netsim.CBRSource{
			Src: h.Servers[i/2], Dst: c.Name, DstPort: rtdsPort,
			Size: 8192, Interval: 30 * time.Millisecond, Jitter: 0.02, Seed: sd.next(),
		}).Run()
	}
	// On/off transients on the Ethernet from three workstations. Short
	// periods keep the offered volume nearly the same from seed to seed.
	eth := h.Misc[6:10]
	netsim.NewSink(eth[3], transientPort)
	for _, w := range eth[:3] {
		(&netsim.OnOffSource{
			Src: w, Dst: eth[3].Name, DstPort: transientPort, Size: 1200,
			PeakBps: 2_000_000, MeanOn: 60 * time.Millisecond, MeanOff: 90 * time.Millisecond,
			Seed: sd.next(),
		}).Run()
	}

	cfg := nttcp.Config{MsgLen: 8192, InterSend: 30 * time.Millisecond, Count: rtdsBurst, Timeout: 500 * time.Millisecond}
	mon := hifi.New(h.Mgmt, cfg, 1)
	paths := h.PathList()
	mon.Submit(core.Request{Paths: paths, Metrics: []metrics.Metric{metrics.Reachability, metrics.Throughput}})
	mon.Start()
	s.dbs = []*core.Database{mon.Database()}

	// The manager reads every (path, metric) every 100 ms. Its TTL sits
	// above the sequencer's nominal C·S·T sweep, so a miss is real
	// senescence, not the design's sample spacing.
	sweep := time.Duration(len(paths)) * time.Duration(rtdsBurst) * cfg.InterSend
	m := newManager(sweep*3/2, tr.log())
	// The fault: client c6 dies right after the sequencer's last
	// measurement of it in the first sweep that ends after mid-run, so
	// detect_s is the sweep's worst-case detection latency rather than
	// whatever phase the sweep happens to be in.
	victim := h.Clients[5]
	toVictim := make([]bool, len(paths))
	var last core.Path
	for i, p := range paths {
		if toVictim[i] = p.Hops[len(p.Hops)-1].Host == victim.Name; toVictim[i] {
			last = p
		}
	}
	var seenAt time.Duration = -1
	var watch func()
	watch = func() {
		if cur, ok := mon.Database().Current(last.ID, metrics.Reachability); ok {
			if seenAt >= 0 && cur.TakenAt > seenAt {
				victim.SetUp(false)
				m.faultAt = k.Now()
				return
			}
			seenAt = cur.TakenAt
		}
		k.After(time.Millisecond, watch)
	}
	k.At(horizon/2, watch)
	q := &dbQuerier{mon.Database()}
	every(k, rtdsWarmup, 100*time.Millisecond, horizon, func(now time.Duration) {
		for i, p := range paths {
			m.readFresh(now, q, p, metrics.Reachability, toVictim[i])
			m.readFresh(now, q, p, metrics.Throughput, toVictim[i])
		}
	})
	s.mgrs = []*manager{m}
	s.setupMonitors = tr.phase("hifi", "setup.monitors", st)

	s.counts = func(c counts) {
		c["hifi.sweeps"] = float64(mon.Sweeps)
		c["nttcp.bytes"] = float64(mon.TrafficBytes)
	}
	s.close = func() {
		mon.Stop()
		k.Close()
	}
	return s
}

// dbQuerier reads a monitor's measurement database through the same
// senescence-gated call the director tree serves (Database.Fresh).
type dbQuerier struct{ db *core.Database }

func (q *dbQuerier) QueryFresh(path core.PathID, met metrics.Metric, now, ttl time.Duration) (core.Measurement, bool) {
	return q.db.Fresh(now, path, met, ttl)
}
