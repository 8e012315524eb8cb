package cots

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topo"
)

// wireShardedCots builds R regions on the group, gives each region its own
// director (on its mgmt host) sharing one agent registry, and submits each
// director the paths originating in its region. owner maps a path to the
// director collecting it.
func wireShardedCots(g *sim.ShardGroup, regions int) (s *topo.ShardedScaled, owner func(core.Path) *Monitor, reg *AgentRegistry) {
	s = topo.BuildShardedScaled(g, 3, regions, 1, 1)
	reg = NewAgentRegistry()
	nodeByName := make(map[netsim.Addr]*netsim.Node)
	regionOf := make(map[netsim.Addr]int)
	for i, r := range s.Regions {
		for _, n := range r.Net.Nodes() {
			nodeByName[n.Name] = n
			regionOf[n.Name] = i
		}
	}
	dirs := make([]*Monitor, regions)
	for i, r := range s.Regions {
		dirs[i] = New(r.Mgmt, "public", time.Second)
		dirs[i].UseRegistry(reg)
	}
	owner = func(p core.Path) *Monitor { return dirs[regionOf[p.Hops[0].Host]] }
	owned := make(map[*Monitor][]core.Path)
	// Foreign endpoints (the next region's clients) need explicit
	// deployment: the owning director cannot resolve them by name.
	for _, p := range s.CrossRegionPaths() {
		m := owner(p)
		owned[m] = append(owned[m], p)
		for _, hop := range p.Hops {
			m.EnsureAgentOn(nodeByName[hop.Host])
		}
	}
	for _, m := range dirs {
		m.Submit(core.Request{Paths: owned[m], Metrics: []metrics.Metric{metrics.Reachability, metrics.OneWayLatency}})
		m.Start()
	}
	return s, owner, reg
}

// TestShardedCotsCrossRegionPolling: per-region directors poll foreign
// agents across WAN (and shard) boundaries, and each path's owner answers
// for it.
func TestShardedCotsCrossRegionPolling(t *testing.T) {
	g := sim.NewShardGroup(2, topo.WANPropDelay)
	defer g.Close()
	s, owner, reg := wireShardedCots(g, 3)
	g.Shard(0).RunUntil(10 * time.Second)

	for _, p := range s.CrossRegionPaths() {
		reach, ok := owner(p).Query(p.ID, metrics.Reachability)
		if !ok || !reach.Reached() {
			t.Fatalf("path %s reachability: %v %v", p.ID, reach, ok)
		}
		lat, ok := owner(p).Query(p.ID, metrics.OneWayLatency)
		if !ok || !lat.OK() || lat.Value <= 0 {
			t.Fatalf("path %s latency: %v %v", p.ID, lat, ok)
		}
		// Cross-region latency approximations ride the 2 ms WAN hop, so
		// half-RTT must be at least one propagation delay.
		if lat.Value < topo.WANPropDelay.Seconds() {
			t.Fatalf("path %s latency %.4fs below one WAN hop", p.ID, lat.Value)
		}
	}
	// 3 regions × (1 server + 1 client): server agents deployed by the
	// owning region, client agents by the previous region — 6 hosts total,
	// each with exactly one agent.
	if reg.Size() != 6 {
		t.Fatalf("registry has %d agents, want 6", reg.Size())
	}
	if g.CrossShardMessages() == 0 {
		t.Fatal("polling crossed no shard boundary")
	}
}

// TestAgentRegistryPreventsDoubleDeploy: two directors sharing a registry
// deploy one agent per host, and the second director reuses the first's.
func TestAgentRegistryPreventsDoubleDeploy(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	h := topo.BuildHiPerD(k, 1)
	reg := NewAgentRegistry()
	m1 := New(h.Mgmt, "public", time.Second)
	m1.UseRegistry(reg)
	m2 := New(h.Probe, "public", time.Second)
	m2.UseRegistry(reg)
	a1 := m1.EnsureAgent("s1")
	a2 := m2.EnsureAgent("s1")
	if a1 == nil || a1 != a2 {
		t.Fatalf("registry did not share the agent: %p vs %p", a1, a2)
	}
	if reg.Size() != 1 {
		t.Fatalf("registry size %d, want 1", reg.Size())
	}
	if m2.EnsureAgentOn(h.Servers[0]) != a1 {
		t.Fatal("EnsureAgentOn did not reuse the registered agent")
	}
}

// TestShardedCotsDeterministicAcrossShardCounts: the same monitored system
// yields identical measurement values at 1 and 2 shards.
func TestShardedCotsDeterministicAcrossShardCounts(t *testing.T) {
	collect := func(shards int) []string {
		g := sim.NewShardGroup(shards, topo.WANPropDelay)
		defer g.Close()
		s, owner, _ := wireShardedCots(g, 3)
		g.Shard(0).RunUntil(10 * time.Second)
		var out []string
		for _, p := range s.CrossRegionPaths() {
			m, _ := owner(p).Query(p.ID, metrics.OneWayLatency)
			out = append(out, m.String())
		}
		return out
	}
	a, b := collect(1), collect(2)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("path %d differs across shard counts:\n1 shard:  %s\n2 shards: %s", i, a[i], b[i])
		}
	}
}
