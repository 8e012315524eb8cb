// Command netmon runs a network resource monitor over the simulated
// HiPer-D testbed and prints the (path, metric)-tuples it reports — the
// paper's Figure 2 in action, with a choice of the §5.1 high-fidelity, the
// §5.2 COTS, or the §7 hybrid instantiation.
//
//	netmon -impl hifi -paths 27 -duration 30s
//	netmon -impl cots -poll 2s -fail c3 -failat 10s
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/cots"
	"repro/internal/hifi"
	"repro/internal/hybrid"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/nttcp"
	"repro/internal/sim"
	"repro/internal/topo"
)

func main() {
	impl := flag.String("impl", "hifi", "monitor implementation: hifi | cots | hybrid")
	nPaths := flag.Int("paths", 27, "number of paths to monitor (max 27)")
	duration := flag.Duration("duration", 30*time.Second, "virtual time to run")
	poll := flag.Duration("poll", 2*time.Second, "COTS/hybrid poll interval")
	concurrency := flag.Int("concurrency", 1, "hifi sequencer concurrency (1 = serial)")
	fail := flag.String("fail", "", "host to fail during the run")
	failAt := flag.Duration("failat", 10*time.Second, "when to fail it")
	export := flag.String("export", "", "write the measurement database as CSV to this file")
	flag.Parse()

	k := sim.NewKernel()
	defer k.Close()
	h := topo.BuildHiPerD(k, 1)
	paths := h.PathList()
	if *nPaths < len(paths) {
		paths = paths[:*nPaths]
	}

	var mon core.Monitor
	burst := nttcp.Config{MsgLen: 8192, InterSend: 30 * time.Millisecond, Count: 16, Timeout: time.Second}
	switch *impl {
	case "hifi":
		m := hifi.New(h.Mgmt, burst, *concurrency)
		mon = m
	case "cots":
		mon = cots.New(h.Mgmt, "public", *poll)
	case "hybrid":
		mon = hybrid.New(h.Mgmt, "public", hybrid.Config{PollInterval: *poll, NTTCP: burst})
	default:
		fmt.Fprintf(os.Stderr, "netmon: unknown implementation %q\n", *impl)
		os.Exit(2)
	}

	req := core.Request{
		Paths:   paths,
		Metrics: []metrics.Metric{metrics.Throughput, metrics.OneWayLatency, metrics.Reachability},
		Mode:    core.ReportAsync,
	}
	mon.Submit(req)
	type startable interface{ Start() }
	mon.(startable).Start()

	// Print the asynchronous tuple stream as the resource manager would
	// see it.
	h.Mgmt.Spawn("printer", func(p *sim.Proc) {
		for {
			m, ok := mon.Reports().Get(p, time.Second)
			if !ok {
				continue
			}
			fmt.Printf("%10s  %s\n", p.Now().Truncate(time.Millisecond), m)
		}
	})
	if *fail != "" {
		k.At(*failAt, func() {
			if n := h.Net.Node(netsim.Addr(*fail)); n != nil {
				n.SetUp(false)
				fmt.Printf("%10s  *** host %s failed ***\n", k.Now().Truncate(time.Millisecond), *fail)
			}
		})
	}
	k.RunUntil(*duration)

	fmt.Printf("\n--- summary after %v of virtual time ---\n", *duration)
	fmt.Printf("monitor: %v\n", mon)
	good, bad := 0, 0
	for _, path := range paths {
		m, ok := mon.Query(path.ID, metrics.Reachability)
		switch {
		case ok && m.Reached():
			good++
		case ok:
			bad++
		}
	}
	fmt.Printf("paths reachable: %d, unreachable: %d (of %d monitored)\n", good, bad, len(paths))

	type dbHolder interface{ Database() *core.Database }
	if *export != "" {
		f, err := os.Create(*export)
		if err != nil {
			fmt.Fprintln(os.Stderr, "netmon:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := writeCSV(f, mon.(dbHolder).Database(), req); err != nil {
			fmt.Fprintln(os.Stderr, "netmon:", err)
			os.Exit(1)
		}
		fmt.Printf("measurement database exported to %s\n", *export)
	}
}

// writeCSV writes every retained measurement of the request's paths ×
// metrics as CSV for offline analysis, ordered by (path, metric, time).
// Columns: path, metric, value, unit, quality, taken_at_seconds, error.
func writeCSV(w io.Writer, db *core.Database, req core.Request) error {
	ids := make([]core.PathID, len(req.Paths))
	for i, p := range req.Paths {
		ids[i] = p.ID
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	mets := append([]metrics.Metric(nil), req.Metrics...)
	sort.Slice(mets, func(i, j int) bool { return mets[i] < mets[j] })

	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"path", "metric", "value", "unit", "quality", "taken_at_seconds", "error"}); err != nil {
		return err
	}
	var err error
	for _, id := range ids {
		for _, met := range mets {
			db.EachHistory(id, met, 0, func(m core.Measurement) bool {
				err = cw.Write([]string{
					string(m.Path),
					m.Metric.String(),
					fmt.Sprintf("%g", m.Value),
					m.Metric.Unit(),
					m.Quality.String(),
					fmt.Sprintf("%.6f", m.TakenAt.Seconds()),
					m.Err,
				})
				return err == nil
			})
			if err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
