package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/cots"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/vclock"
)

// E14 exercises the sharded kernel at increasing shard counts on a fixed
// monitored system: R regions joined by a full WAN mesh, one COTS director
// per region collecting the paths that originate there (wireRegions),
// cross-region paths only, and a mid-run host failure whose detection
// latency is the fidelity probe, read from the victim path's owner.
//
// The region count — not the shard count — fixes the workload, so every row
// simulates the same system: event totals and detection latency must agree
// across rows, while cut links, cross-shard messages, and windows grow with
// the partitioning. That invariance is the conservative protocol's
// correctness made visible; wall-clock speedup is deliberately excluded
// from the rows (tables must be deterministic) and measured instead by
// `make bench-shard`, which sweeps the same shard counts against the
// process clock.
func E14(quick bool) *report.Table {
	t := &report.Table{
		ID:    "E14",
		Title: "Sharded kernel scaling: fixed workload vs shard count",
		Paper: "scale-out direction of §3's 10^2 networks / 10^3 computers model; monitoring results must not depend on the partitioning",
		Columns: []string{"shards", "regions", "agents", "paths", "cut links",
			"events", "xshard msgs", "windows", "detect"},
	}
	shardCounts := []int{1, 2}
	if !quick {
		shardCounts = []int{1, 2, 4, 8}
	}
	regions := pickN(quick, 4, 8)
	serversPer := 1
	clientsPer := pickN(quick, 2, 4)
	for _, sc := range shardCounts {
		t.AddRow(e14Row(sc, regions, serversPer, clientsPer, quick)...)
	}
	t.AddNote("host %s fails at t=%v; detect is the first reachability=0 sample after the failure", "g2-c1", e14FailAt)
	t.AddNote("identical events/detect across rows = shard-transparency; wall-clock speedup is measured by `make bench-shard` (hardware-dependent, excluded from deterministic tables)")
	return t
}

const e14FailAt = 5 * time.Second

// e14Row runs the fixed workload on sc shards and returns one table row.
func e14Row(sc, regions, serversPer, clientsPer int, quick bool) []any {
	g := sim.NewShardGroup(sc, topo.WANPropDelay)
	defer g.Close()
	s := topo.BuildShardedScaled(g, 14, regions, serversPer, clientsPer)

	w := wireRegions(s, time.Second, nil)

	// Fail region 2's first client mid-run, scheduled on its own shard.
	victim := s.Regions[1].Clients[0]
	s.Regions[1].Net.K.At(e14FailAt, func() { victim.SetUp(false) })

	window := pick(quick, 12*time.Second, 20*time.Second)
	events := g.Shard(0).RunUntil(window)

	// Detection latency: first reachability=0 sample after the failure on a
	// path terminating at the victim, read from its owner's database.
	detect := time.Duration(0)
	for _, p := range w.paths {
		if p.Hops[len(p.Hops)-1].Host != victim.Name {
			continue
		}
		w.owner(p).Database().EachHistory(p.ID, metrics.Reachability, 0, func(m core.Measurement) bool {
			if m.TakenAt > e14FailAt && !m.Reached() && detect == 0 {
				detect = m.TakenAt - e14FailAt
			}
			return true
		})
		break
	}
	detectCell := "not detected"
	if detect > 0 {
		detectCell = fmt.Sprintf("%v", detect)
	}
	return []any{sc, regions, w.reg.Size(), len(w.paths), s.CutEdges(),
		events, g.CrossShardMessages(), g.Windows(), detectCell}
}

// regionWiring is the per-region COTS monitoring E14 and E15 share: one
// director per region on its mgmt host, all sharing one agent registry,
// each collecting the cross-region paths that originate in its region.
type regionWiring struct {
	reg      *cots.AgentRegistry
	dirs     []*cots.Monitor
	paths    []core.Path
	regionOf map[netsim.Addr]int
}

// owner returns the director collecting p: the one in p's origin region.
func (w *regionWiring) owner(p core.Path) *cots.Monitor {
	return w.dirs[w.regionOf[p.Hops[0].Host]]
}

// wireRegions gives every region a drifting clock and a COTS director
// polling every poll, deploys the agents each director's paths touch
// (foreign endpoints included, since only the wiring holds their nodes),
// submits each director its owned paths and starts it. configure, when
// set, runs on each director before any agent is deployed.
func wireRegions(s *topo.ShardedScaled, poll time.Duration, configure func(*cots.Monitor)) *regionWiring {
	// Per-region drifting clocks, seeded by region index so the clock map
	// is a pure function of the topology, not the partitioning.
	for i, r := range s.Regions {
		clk := &vclock.Clock{
			Offset: time.Duration(i+1) * time.Millisecond,
			Drift:  float64(i+1) * 20e-6,
		}
		for _, n := range append(append([]*netsim.Node{}, r.Servers...), r.Clients...) {
			n.LocalClock = clk
		}
	}
	w := &regionWiring{
		reg:      cots.NewAgentRegistry(),
		dirs:     make([]*cots.Monitor, len(s.Regions)),
		paths:    s.CrossRegionPaths(),
		regionOf: make(map[netsim.Addr]int),
	}
	nodeByName := make(map[netsim.Addr]*netsim.Node)
	for i, r := range s.Regions {
		for _, n := range r.Net.Nodes() {
			nodeByName[n.Name] = n
			w.regionOf[n.Name] = i
		}
	}
	for i, r := range s.Regions {
		m := cots.New(r.Mgmt, "public", poll)
		m.UseRegistry(w.reg)
		if configure != nil {
			configure(m)
		}
		w.dirs[i] = m
	}
	owned := make([][]core.Path, len(w.dirs))
	for _, p := range w.paths {
		i := w.regionOf[p.Hops[0].Host]
		owned[i] = append(owned[i], p)
		for _, hop := range p.Hops {
			w.dirs[i].EnsureAgentOn(nodeByName[hop.Host])
		}
	}
	for i, m := range w.dirs {
		m.Submit(core.Request{Paths: owned[i], Metrics: []metrics.Metric{metrics.Reachability, metrics.OneWayLatency}})
	}
	for _, m := range w.dirs {
		m.Start()
	}
	return w
}
