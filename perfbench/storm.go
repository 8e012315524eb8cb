package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/cots"
	"repro/internal/director"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/sketch"
	"repro/internal/snmp"
	"repro/internal/topo"
)

// cotsStorm is a scaled 8-LAN system watched by a 2-level director tree
// whose leaves are SNMP pollers with sketches on and one shared agent
// registry. An open loop offers a trap storm above every leaf's service
// rate, and one genuine alarm rises mid-storm. Small SNMP PDUs: the work
// is in the BER codec, the director queues, coalescer and re-export, and
// database and sketch writes beside the manager's reads.
var cotsStorm = &workload{
	name:    "cots_storm",
	shards:  1,
	horizon: stormHorizon,
	build:   buildStorm,
}

const (
	stormHorizon = 30 * time.Second
	stormLANs    = 8
	stormHosts   = 4 // per LAN: the leaf's station, then a path origin and two destinations
	// Each leaf gets stormSources open-loop sources, one trap every
	// stormPeriod each: 600 traps/s against the 500/s a director serves
	// at TrapProcTime = 2 ms, from stormFrom until 2 s before the horizon.
	stormSources = 6
	stormPeriod  = 10 * time.Millisecond
	stormFrom    = 3 * time.Second
	stormWarmup  = 2 * time.Second
)

func buildStorm(seed int64, _ int, horizon time.Duration, tr *tracer) *scenario {
	sd := newSeeds(seed)
	k := sim.NewKernel()
	st := time.Now()
	h := topo.BuildScaled(k, sd.next(), stormLANs, stormHosts)
	s := &scenario{k: k, nets: []*netsim.Network{h.Net}, segs: append([]*netsim.SharedSegment{h.Backbone}, h.LANs...)}
	s.setupTopo = tr.phase("topo", "setup.topo", st)

	st = time.Now()
	cfg := director.Config{
		QueueCap:       1024,
		TrapProcTime:   2 * time.Millisecond,
		CoalesceWindow: 200 * time.Millisecond,
		Reexport:       250 * time.Millisecond,
		TTL:            2 * time.Second,
	}
	reg := cots.NewAgentRegistry()
	root := director.New(h.Mgmt, "root", cfg)
	var leaves []*director.Director
	var members []*cots.Monitor
	var paths []core.Path
	for i := 0; i < stormLANs; i++ {
		lan := h.Hosts[i*stormHosts : (i+1)*stormHosts]
		m := cots.New(lan[0], "public", 500*time.Millisecond)
		m.Database().EnableSketches(sketch.Thresholds{})
		m.UseRegistry(reg)
		l := director.NewLeaf(lan[0], fmt.Sprintf("leaf%d", i+1), m, cfg)
		root.AddChild(l)
		leaves = append(leaves, l)
		members = append(members, m)
	}
	// Paths from each LAN's origin to its two destinations, ordered so
	// that the root's round-robin sharding gives every leaf its own LAN's
	// paths: path i belongs to LAN i mod stormLANs.
	for d := 2; d < stormHosts; d++ {
		for i := 0; i < stormLANs; i++ {
			lan := h.Hosts[i*stormHosts : (i+1)*stormHosts]
			paths = append(paths, core.NewPath(core.ProcessRef{Host: lan[1].Name}, core.ProcessRef{Host: lan[d].Name}))
		}
	}
	// Light small-frame background traffic on every LAN, so that polls
	// share the wire with seeded application traffic.
	for i := 0; i < stormLANs; i++ {
		lan := h.Hosts[i*stormHosts : (i+1)*stormHosts]
		netsim.NewSink(lan[2], rtdsPort)
		(&netsim.CBRSource{
			Src: lan[1], Dst: lan[2].Name, DstPort: rtdsPort,
			Size: 512, Interval: 10 * time.Millisecond, Jitter: 0.5, Seed: sd.next(),
		}).Run()
	}
	mets := []metrics.Metric{metrics.Reachability, metrics.OneWayLatency}
	root.Submit(core.Request{Paths: paths, Metrics: mets})

	m := newManager(cfg.TTL, tr.log())
	offers := tr.log()
	var offered uint64
	offer := func(l *director.Director, t director.Trap) {
		st := offers.start()
		l.OfferTrap(t)
		offers.end("director", "OfferTrap", st)
		offered++
	}
	stormTo := horizon - 2*time.Second
	// The storm: an open loop in simulated time. Each source keeps its own
	// seeded phase and fires every stormPeriod regardless of how the tree
	// keeps up.
	for i, l := range leaves {
		path := paths[i].ID
		for j := 0; j < stormSources; j++ {
			l, src := l, fmt.Sprintf("probe%d.%d", i+1, j+1)
			var fire func()
			fire = func() {
				offer(l, director.Trap{Source: src, Path: path, Rising: true, Count: 1, At: k.Now()})
				if next := k.Now() + stormPeriod; next < stormTo {
					k.At(next, fire)
				}
			}
			k.At(stormFrom+sd.jitter(stormPeriod), fire)
		}
	}
	// The genuine alarm, mid-storm (plus up to 10 ms of seeded jitter):
	// LAN 1's last host dies and its alarm rises once, while the leaf's
	// queue is still filling.
	victim := h.Hosts[stormHosts-1]
	victimPath := paths[stormLANs].ID
	m.faultAt = stormFrom + horizon/5 + sd.jitter(10*time.Millisecond)
	k.At(m.faultAt, func() {
		victim.SetUp(false)
		offer(leaves[0], director.Trap{Source: "alarm", Path: victimPath, Rising: true, Count: 1, At: k.Now()})
	})
	root.OnTrap = func(t director.Trap) {
		if t.Source == "alarm" {
			m.seen(k.Now())
		}
	}
	// The manager reads every path's reachability and latency through the
	// root's freshness gate, and the latency p99 from the owning leaf's
	// sketch, every 50 ms.
	every(k, stormWarmup, 50*time.Millisecond, horizon, func(now time.Duration) {
		for _, p := range paths {
			m.readFresh(now, root, p, metrics.Reachability, false)
			m.readFresh(now, root, p, metrics.OneWayLatency, false)
			st := m.log.start()
			v, ok := root.Quantile(p.ID, metrics.OneWayLatency, 0.99)
			m.log.end("core", "read", st)
			m.value(now, v, ok)
		}
	})
	s.mgrs = []*manager{m}
	root.Start()
	s.setupMonitors = tr.phase("director", "setup.monitors", st)

	s.dbs = []*core.Database{root.Database()}
	for _, mb := range members {
		s.dbs = append(s.dbs, mb.Database())
	}
	all := append([]*director.Director{root}, leaves...)
	s.counts = func(c counts) {
		for _, mb := range members {
			c["cots.sweeps"] += float64(mb.Sweeps)
			c["snmp.requests"] += float64(mb.Client.Stats.Requests)
			c["snmp.timeouts"] += float64(mb.Client.Stats.Timeouts)
		}
		for _, d := range all {
			c["director.traps_in"] += float64(d.Stats.TrapsIn)
			c["director.traps_dropped"] += float64(d.Stats.TrapsDropped)
			c["director.reexports"] += float64(d.Stats.Reexports)
			c["director.records_in"] += float64(d.Stats.RecordsIn)
		}
		c["director.traps_coalesced"] = float64(root.CoalescedTotal())
		c["director.traps_delivered"] = float64(root.Stats.TrapsDelivered)
	}
	s.traps = func() trapLedger {
		t := trapLedger{offered: offered, rootIn: root.Stats.TrapsIn, rootLost: root.Stats.TrapsLost}
		for _, l := range leaves {
			t.leafIn += l.Stats.TrapsIn
			t.leafLost += l.Stats.TrapsLost
			t.leafForwarded += l.Stats.TrapsForwarded
		}
		return t
	}
	s.agent = registryAgent(reg)
	s.close = func() {
		root.Stop()
		k.Close()
	}
	return s
}

// registryAgent looks deployed agents up in a shared registry.
func registryAgent(reg *cots.AgentRegistry) func(netsim.Addr) *snmp.Agent {
	return func(host netsim.Addr) *snmp.Agent {
		if d := reg.Lookup(host); d != nil {
			return d.Agent
		}
		return nil
	}
}
