package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/cots"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topo"
)

// wanSharded is an 8-region WAN on a 2-shard kernel group: one SNMP
// monitor per region over cross-region paths, cross-region CBR traffic,
// and one host failing mid-run. Each region's reads run on the shard that
// owns the region. It is the only workload where windows, barriers and
// cross-shard handoffs do work.
var wanSharded = &workload{
	name:    "wan_sharded",
	shards:  2,
	horizon: wanHorizon,
	build:   buildWAN,
}

const (
	wanHorizon = 30 * time.Second
	wanRegions = 8
	wanClients = 4 // per region, plus one server
	wanWarmup  = 2 * time.Second
	wanTTL     = 2 * time.Second // above the 500 ms poll period plus a dead host's 1 s of timeouts
)

func buildWAN(seed int64, shards int, horizon time.Duration, tr *tracer) *scenario {
	sd := newSeeds(seed)
	g := sim.NewShardGroup(shards, topo.WANPropDelay)
	st := time.Now()
	w := topo.BuildShardedScaled(g, sd.next(), wanRegions, 1, wanClients)
	s := &scenario{k: g.Shard(0), group: g}
	for _, r := range w.Regions {
		s.nets = append(s.nets, r.Net)
		s.segs = append(s.segs, r.LAN)
	}
	s.setupTopo = tr.phase("topo", "setup.topo", st)

	st = time.Now()
	// Cross-region CBR: each region's server streams to every client of
	// the next region, the same pairs the monitor watches.
	for i, r := range w.Regions {
		next := w.Regions[(i+1)%wanRegions]
		for _, c := range next.Clients {
			netsim.NewSink(c, rtdsPort)
			(&netsim.CBRSource{
				Src: r.Servers[0], Dst: c.Name, DstPort: rtdsPort,
				Size: 1024, Interval: 20 * time.Millisecond, Jitter: 0.05, Seed: sd.next(),
			}).Run()
		}
	}

	// One monitor per region, sharing an agent registry, owning the paths
	// that start in its region.
	reg := cots.NewAgentRegistry()
	node := make(map[netsim.Addr]*netsim.Node)
	region := make(map[netsim.Addr]int)
	for i, r := range w.Regions {
		for _, n := range r.Net.Nodes() {
			node[n.Name] = n
			region[n.Name] = i
		}
	}
	mons := make([]*cots.Monitor, wanRegions)
	owned := make([][]core.Path, wanRegions)
	for i, r := range w.Regions {
		mons[i] = cots.New(r.Mgmt, "public", 500*time.Millisecond)
		mons[i].UseRegistry(reg)
	}
	for _, p := range w.CrossRegionPaths() {
		i := region[p.Hops[0].Host]
		owned[i] = append(owned[i], p)
		for _, hop := range p.Hops {
			mons[i].EnsureAgentOn(node[hop.Host])
		}
	}
	mets := []metrics.Metric{metrics.Reachability, metrics.OneWayLatency}
	victim := w.Regions[1].Clients[0]
	// Region 2's first client dies mid-run, plus up to 10 ms of seeded
	// jitter.
	killAt := horizon/2 + sd.jitter(10*time.Millisecond)
	w.Regions[1].Net.K.At(killAt, func() { victim.SetUp(false) })
	for i, r := range w.Regions {
		mon := mons[i]
		mon.Submit(core.Request{Paths: owned[i], Metrics: mets})
		mon.Start()
		s.dbs = append(s.dbs, mon.Database())

		m := newManager(wanTTL, tr.log())
		q := &dbQuerier{mon.Database()}
		paths := owned[i]
		toVictim := make([]bool, len(paths))
		for j, p := range paths {
			if toVictim[j] = p.Hops[len(p.Hops)-1].Host == victim.Name; toVictim[j] {
				m.faultAt = killAt
			}
		}
		every(r.Net.K, wanWarmup, 100*time.Millisecond, horizon, func(now time.Duration) {
			for j, p := range paths {
				m.readFresh(now, q, p, metrics.Reachability, toVictim[j])
				m.readFresh(now, q, p, metrics.OneWayLatency, toVictim[j])
			}
		})
		s.mgrs = append(s.mgrs, m)
	}
	s.setupMonitors = tr.phase("cots", "setup.monitors", st)

	s.counts = func(c counts) {
		for _, mon := range mons {
			c["cots.sweeps"] += float64(mon.Sweeps)
			c["snmp.requests"] += float64(mon.Client.Stats.Requests)
			c["snmp.timeouts"] += float64(mon.Client.Stats.Timeouts)
		}
	}
	s.agent = registryAgent(reg)
	s.close = func() {
		for _, mon := range mons {
			mon.Stop()
		}
		g.Close()
	}
	return s
}
