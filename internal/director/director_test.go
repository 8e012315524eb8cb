package director

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cots"
	"repro/internal/manager"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/sketch"
	"repro/internal/topo"
)

func trap(src string, path core.PathID, rising bool) Trap {
	return Trap{Source: src, Path: path, Rising: rising, Count: 1}
}

func TestCoalescerLeadingEdgeThenSummary(t *testing.T) {
	c := NewCoalescer(100 * time.Millisecond)
	for i := 0; i < 5; i++ {
		c.Offer(trap("a", "p", true), time.Duration(i)*time.Millisecond)
	}
	out := c.Take()
	if len(out) != 1 || out[0].Count != 1 || !out[0].Rising {
		t.Fatalf("leading edge should pass alone, got %v", out)
	}
	c.Flush(50 * time.Millisecond) // window not yet expired
	if got := c.Take(); len(got) != 0 {
		t.Fatalf("early flush emitted %v", got)
	}
	c.Flush(150 * time.Millisecond)
	out = c.Take()
	if len(out) != 1 || out[0].Count != 4 {
		t.Fatalf("want one summary trap of count 4, got %v", out)
	}
	if c.Coalesced != 4 {
		t.Fatalf("Coalesced = %d, want 4", c.Coalesced)
	}
}

func TestCoalescerDirectionChangeNeverLost(t *testing.T) {
	c := NewCoalescer(time.Second)
	c.Offer(trap("a", "p", true), 0)
	c.Offer(trap("a", "p", true), 1)
	c.Offer(trap("a", "p", false), 2) // direction change mid-window
	out := c.Take()
	// lead R, summary R (count 1), lead F — in that order.
	if len(out) != 3 || !out[0].Rising || !out[1].Rising || out[1].Count != 1 || out[2].Rising {
		t.Fatalf("direction change mishandled: %v", out)
	}
	c.FlushAll()
	if got := c.Take(); len(got) != 0 {
		t.Fatalf("unexpected residue %v", got)
	}
}

func TestCoalescerZeroWindowPassesThrough(t *testing.T) {
	c := NewCoalescer(0)
	for i := 0; i < 10; i++ {
		c.Offer(trap("a", "p", true), 0)
	}
	if out := c.Take(); len(out) != 10 {
		t.Fatalf("zero window must not coalesce, got %d traps", len(out))
	}
	if c.Coalesced != 0 {
		t.Fatalf("Coalesced = %d, want 0", c.Coalesced)
	}
}

func TestCoalescerKeysAreIndependent(t *testing.T) {
	c := NewCoalescer(time.Second)
	c.Offer(trap("a", "p", true), 0)
	c.Offer(trap("b", "p", true), 0)
	c.Offer(trap("a", "q", true), 0)
	if out := c.Take(); len(out) != 3 {
		t.Fatalf("three distinct streams, want three leads, got %d", len(out))
	}
}

// stubMember is a minimal Member: a bare DirectorBase-backed database the
// tests record into directly.
type stubMember struct {
	core.DirectorBase
}

func newStubMember(k *sim.Kernel) *stubMember {
	return &stubMember{DirectorBase: core.NewDirectorBase(k)}
}

func (s *stubMember) Start() {}

func buildStubTree(k *sim.Kernel, nw *netsim.Network, cfg Config) (*Director, []*Director) {
	rootHost := nw.NewHost("root")
	root := New(rootHost, "root", cfg)
	var leaves []*Director
	for _, name := range []string{"leaf0", "leaf1"} {
		h := nw.NewHost(netsim.Addr(name))
		l := NewLeaf(h, name, newStubMember(k), cfg)
		root.AddChild(l)
		leaves = append(leaves, l)
	}
	return root, leaves
}

func TestTrapDropAccounting(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	nw := netsim.New(k, 1)
	cfg := Config{QueueCap: 8, TrapProcTime: time.Hour} // processor effectively stuck
	root, _ := buildStubTree(k, nw, cfg)
	root.Start()
	for i := 0; i < 20; i++ {
		root.OfferTrap(trap("s", "p", true))
	}
	if root.Stats.TrapsIn != 20 {
		t.Fatalf("TrapsIn = %d, want 20", root.Stats.TrapsIn)
	}
	if root.Stats.TrapsDropped != 12 {
		t.Fatalf("TrapsDropped = %d, want 12 (cap 8)", root.Stats.TrapsDropped)
	}
}

func TestBackpressureStretchAndRelease(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	nw := netsim.New(k, 1)
	cfg := Config{
		QueueCap: 64, HighWater: 16, LowWater: 4,
		TrapProcTime: 10 * time.Millisecond, Supervise: 100 * time.Millisecond,
		CoalesceWindow: 100 * time.Millisecond, MaxWindow: 400 * time.Millisecond,
	}
	root, leaves := buildStubTree(k, nw, cfg)
	root.Start()
	for i := 0; i < 60; i++ {
		root.OfferTrap(trap("s", "p", true))
	}
	k.RunUntil(350 * time.Millisecond)
	if root.Stats.Stretches == 0 {
		t.Fatal("high-water crossing did not raise backpressure")
	}
	if leaves[0].stretch == 0 || leaves[1].stretch == 0 {
		t.Fatalf("children not stretched: %d/%d", leaves[0].stretch, leaves[1].stretch)
	}
	if w := root.co.Window(); w <= cfg.CoalesceWindow {
		t.Fatalf("coalescing window not widened: %v", w)
	}
	if iv := leaves[0].reexportInterval(); iv <= cfg.Reexport {
		t.Fatalf("re-export interval not stretched: %v", iv)
	}
	// Queue drains at 100 traps/s; by 2.5s pressure must have fully released.
	k.RunUntil(2500 * time.Millisecond)
	if root.level != 0 || leaves[0].stretch != 0 {
		t.Fatalf("pressure not released: level=%d stretch=%d", root.level, leaves[0].stretch)
	}
	if w := root.co.Window(); w != cfg.CoalesceWindow {
		t.Fatalf("window not restored: %v", w)
	}
}

func TestTrapsFlowUpTreeCoalesced(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	nw := netsim.New(k, 1)
	cfg := Config{TrapProcTime: time.Millisecond, CoalesceWindow: 100 * time.Millisecond}
	root, leaves := buildStubTree(k, nw, cfg)
	var delivered []Trap
	root.OnTrap = func(t Trap) { delivered = append(delivered, t) }
	root.Start()
	for i := 0; i < 50; i++ {
		leaves[0].OfferTrap(trap("s", "p", true))
	}
	k.RunUntil(time.Second)
	// Leaf: lead + one summary(49). Root re-coalesces what arrives within
	// its own window: lead passes, summary arrives later and leads again
	// or is absorbed — either way total count must be conserved.
	var total uint64
	for _, tr := range delivered {
		total += tr.Count
	}
	if total != 50 {
		t.Fatalf("count not conserved across the tree: %d", total)
	}
	if len(delivered) > 3 {
		t.Fatalf("storm of 50 identical traps should reach the root as <=3 summaries, got %d", len(delivered))
	}
	if leaves[0].Stats.TrapsForwarded >= 50 {
		t.Fatalf("leaf forwarded %d traps, coalescing ineffective", leaves[0].Stats.TrapsForwarded)
	}
}

// buildCotsTree assembles a 2-leaf tree over a scaled topology with real
// cots members sharing one agent registry; returns root, leaves, paths.
func buildCotsTree(k *sim.Kernel, cfg Config) (*topo.Scaled, *cots.AgentRegistry, *Director, []*Director, []core.Path) {
	h := topo.BuildScaled(k, 11, 2, 3)
	reg := cots.NewAgentRegistry()
	root := New(h.Mgmt, "root", cfg)
	var leaves []*Director
	for i := 0; i < 2; i++ {
		m := cots.New(h.Hosts[i*3], "public", 500*time.Millisecond)
		m.Database().EnableSketches(sketch.Thresholds{})
		m.UseRegistry(reg)
		l := NewLeaf(h.Hosts[i*3], "leaf"+string(rune('0'+i)), m, cfg)
		root.AddChild(l)
		leaves = append(leaves, l)
	}
	var paths []core.Path
	for i := 0; i < 2; i++ {
		paths = append(paths, core.NewPath(
			core.ProcessRef{Host: h.Hosts[i*3+1].Name},
			core.ProcessRef{Host: h.Hosts[i*3+2].Name}))
	}
	return h, reg, root, leaves, paths
}

func TestRootServesFreshQueriesFromLeafData(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	cfg := Config{Reexport: 250 * time.Millisecond, TTL: 2 * time.Second}
	_, _, root, leaves, paths := buildCotsTree(k, cfg)
	root.Submit(core.Request{Paths: paths, Metrics: []metrics.Metric{metrics.Reachability, metrics.OneWayLatency}})
	root.Start()
	k.RunUntil(3 * time.Second)

	// Round-robin sharding: path 0 on leaf 0, path 1 on leaf 1.
	if len(leaves[0].Assigned()) != 1 || len(leaves[1].Assigned()) != 1 {
		t.Fatalf("sharding wrong: %d/%d", len(leaves[0].Assigned()), len(leaves[1].Assigned()))
	}
	// A leaf serves reads straight out of its member's database.
	for _, l := range leaves {
		db := l.Database()
		if db != l.member.Database() {
			t.Fatalf("%s: Database() is not its member's", l.Name)
		}
		for _, path := range l.Assigned() {
			fresh, fok := l.QueryFresh(path.ID, metrics.Reachability, k.Now(), 2*time.Second)
			want, wok := db.Fresh(k.Now(), path.ID, metrics.Reachability, 2*time.Second)
			if !fok || fok != wok || fresh != want {
				t.Fatalf("%s QueryFresh(%s) = %v %v, database has %v %v", l.Name, path.ID, fresh, fok, want, wok)
			}
			last, lok := l.LastKnown(path.ID, metrics.Reachability)
			want, wok = db.LastKnown(path.ID, metrics.Reachability)
			if !lok || lok != wok || last != want {
				t.Fatalf("%s LastKnown(%s) = %v %v, database has %v %v", l.Name, path.ID, last, lok, want, wok)
			}
		}
	}
	for _, path := range paths {
		m, ok := root.QueryFresh(path.ID, metrics.Reachability, k.Now(), 2*time.Second)
		if !ok {
			t.Fatalf("root has no fresh reachability for %s", path.ID)
		}
		if !m.Reached() {
			t.Fatalf("path %s unexpectedly unreachable: %v", path.ID, m)
		}
		// The root's copy is the leaf's measurement verbatim.
		lm, _ := root.leafFor(path.ID).Query(path.ID, metrics.Reachability)
		if m.TakenAt != lm.TakenAt || m.Value != lm.Value {
			t.Fatalf("root copy diverges from leaf: %v vs %v", m, lm)
		}
		// Quantile queries delegate to the owning leaf's sketch.
		if _, ok := root.Quantile(path.ID, metrics.OneWayLatency, 0.95); !ok {
			t.Fatalf("root cannot answer quantile for %s", path.ID)
		}
	}
	if root.Stats.RecordsIn == 0 || root.Stats.Reexports != 0 {
		t.Fatalf("unexpected flow stats: %+v", root.Stats)
	}
	if agg, ok := root.AggregateSketch(metrics.OneWayLatency); !ok || agg.Summary().Count == 0 {
		t.Fatal("region sketch aggregation empty at root")
	}
}

func TestLeafDeathAdoptionAndReclaim(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	cfg := Config{
		Reexport: 250 * time.Millisecond, TTL: time.Second,
		AdoptAfter: time.Second, Supervise: 250 * time.Millisecond,
		WatchdogEvery: 100 * time.Millisecond,
	}
	h, reg, root, leaves, paths := buildCotsTree(k, cfg)
	root.Submit(core.Request{Paths: paths, Metrics: []metrics.Metric{metrics.Reachability}})
	root.Start()
	k.RunUntil(2 * time.Second)
	orphanPath := leaves[0].Assigned()[0]
	agentsBefore := reg.Size()

	// Kill leaf 0's host: heartbeats stop, shard must move to leaf 1.
	h.Hosts[0].SetUp(false)
	k.RunUntil(3500 * time.Millisecond)
	if root.Stats.Adoptions != 1 {
		t.Fatalf("Adoptions = %d, want 1 (events: %v)", root.Stats.Adoptions, root.Events)
	}
	if len(leaves[1].Assigned()) != 2 || len(leaves[0].Assigned()) != 0 {
		t.Fatalf("shard not moved: %d/%d", len(leaves[0].Assigned()), len(leaves[1].Assigned()))
	}
	// The adopter found the orphan shard's agents in the shared registry
	// instead of re-deploying them.
	if reg.Size() != agentsBefore {
		t.Fatalf("adoption re-deployed agents: %d -> %d", agentsBefore, reg.Size())
	}
	// The adopter's sweeps cover the orphan path; the root regains
	// freshness — via the sibling, never fabricated.
	k.RunUntil(5 * time.Second)
	if _, ok := root.QueryFresh(orphanPath.ID, metrics.Reachability, k.Now(), time.Second); !ok {
		t.Fatal("orphan path never recovered freshness after adoption")
	}
	if l := root.leafFor(orphanPath.ID); l != leaves[1] {
		t.Fatalf("quantile delegation still points at dead leaf")
	}

	// Revive leaf 0: its heartbeats resume and the home shard comes back.
	h.Hosts[0].SetUp(true)
	k.RunUntil(7 * time.Second)
	if root.Stats.Reclaims != 1 {
		t.Fatalf("Reclaims = %d, want 1 (events: %v)", root.Stats.Reclaims, root.Events)
	}
	if len(leaves[0].Assigned()) != 1 || len(leaves[1].Assigned()) != 1 {
		t.Fatalf("shard not reclaimed: %d/%d", len(leaves[0].Assigned()), len(leaves[1].Assigned()))
	}
}

func TestStalenessSurfacedNotMasked(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	cfg := Config{
		Reexport: 250 * time.Millisecond, TTL: time.Second,
		AdoptAfter:    time.Hour, // no adoption: pure staleness exposure
		WatchdogEvery: 100 * time.Millisecond,
	}
	h, _, root, leaves, paths := buildCotsTree(k, cfg)
	root.Submit(core.Request{Paths: paths, Metrics: []metrics.Metric{metrics.Reachability}})
	root.Start()
	k.RunUntil(2 * time.Second)
	orphanPath := leaves[0].Assigned()[0]
	h.Hosts[0].SetUp(false)
	k.RunUntil(4 * time.Second)
	if _, ok := root.QueryFresh(orphanPath.ID, metrics.Reachability, k.Now(), time.Second); ok {
		t.Fatal("root served a fresh-looking value for a dead leaf's path")
	}
	if _, ok := root.LastKnown(orphanPath.ID, metrics.Reachability); !ok {
		t.Fatal("last-known-value reporting should survive staleness")
	}
}

func TestManagerRunsUnchangedOverTree(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	h := topo.BuildHiPerD(k, 7)
	reg := cots.NewAgentRegistry()
	cfg := Config{Reexport: 250 * time.Millisecond, TTL: 2 * time.Second}
	root := New(h.Mgmt, "root", cfg)
	for i := 0; i < 2; i++ {
		m := cots.New(h.Clients[i], "public", 500*time.Millisecond)
		m.UseRegistry(reg)
		root.AddChild(NewLeaf(h.Clients[i], "leaf"+string(rune('0'+i)), m, cfg))
	}
	mgr := manager.New(h.Mgmt, root, manager.Policy{
		RequireReachable: true,
		Grace:            2,
		EvalInterval:     500 * time.Millisecond,
		MaxStaleness:     2 * time.Second,
	})
	mgr.DefinePool("server", []netsim.Addr{"s1", "s2", "s3"})
	mgr.DefinePool("client", []netsim.Addr{"c5", "c6"})
	for _, proc := range []struct{ name, role string }{
		{"rtds-server-a", "server"}, {"rtds-server-b", "server"}, {"rtds-client", "client"},
	} {
		if _, err := mgr.Place(proc.name, proc.role); err != nil {
			t.Fatal(err)
		}
	}
	mgr.Start("server", "client")
	root.Start()
	k.RunUntil(3 * time.Second)
	if len(mgr.Reconfigs) != 0 {
		t.Fatalf("healthy system reconfigured: %v", mgr.Reconfigs)
	}
	// Kill the server's host; the manager must fail it over using only the
	// root's (path, metric) API.
	h.Net.Node("s1").SetUp(false)
	k.RunUntil(10 * time.Second)
	if len(mgr.Reconfigs) == 0 {
		t.Fatal("manager never reconfigured over the director tree")
	}
	if mgr.Reconfigs[0].From != "s1" || mgr.Reconfigs[0].To == "s1" {
		t.Fatalf("unexpected reconfig %v", mgr.Reconfigs[0])
	}
}
