// Command perfbench is the repository's end-to-end benchmark. It plays the
// paper's resource manager against three monitored systems built from the
// library's public API, reads (path, metric) answers on a fixed simulated
// schedule, and reports what a user of the monitor would see: how fast the
// simulator runs, what it costs the host, and how senescent the answers
// are. See README.md for the workloads and the metric map.
//
// Usage:
//
//	perfbench --workload rtds_hifi|cots_storm|wan_sharded --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 they are the per-layer ones, and the
// traced run's counts and spans are also written as results streams under
// --out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its streams and exit code lifted out for testing.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Float64("seconds", 10, "host seconds to measure for")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from traced runs; 0 reports end-to-end metrics")
	out := fs.String("out", ".bench_build/perfbench", "directory for the traced run's results streams")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || fs.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "usage: perfbench --workload %s --seed N --seconds S --trace 0|1\n",
			strings.Join(workloadNames(), "|"))
		return 2
	}
	// One P: the host gives the benchmark a couple of shared vCPUs, and a
	// run spread over them measures how the host schedules threads, not
	// the program. Sharded workloads still run every shard, window and
	// handoff; they interleave on one P.
	runtime.GOMAXPROCS(1)
	h := newHeader(w, *seed)
	fmt.Fprintln(stdout, h)

	budget := time.Duration(*seconds * float64(time.Second))
	var res result
	if *trace == 1 {
		var err error
		res, err = measureTraced(w, *seed, budget, *out, h)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	} else {
		res = measure(w, *seed, budget)
	}
	for _, e := range res.errs {
		fmt.Fprintf(stderr, "perfbench: check failed: %v\n", e)
	}
	fmt.Fprintln(stderr, res.summary())
	line, err := json.Marshal(res.report())
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// header is the run's truthful identity, taken from the process itself:
// GOMAXPROCS is read back, not assumed.
type header struct {
	Workload   string
	Seed       int64
	Shards     int
	GOMAXPROCS int
	NumCPU     int
	Go         string
	Commit     string
}

func newHeader(w *workload, seed int64) header {
	return header{
		Workload:   w.name,
		Seed:       seed,
		Shards:     w.shards,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Go:         runtime.Version(),
		Commit:     commit(),
	}
}

func (h header) String() string {
	return fmt.Sprintf("perfbench: workload=%s seed=%d shards=%d gomaxprocs=%d numcpu=%d go=%s commit=%s",
		h.Workload, h.Seed, h.Shards, h.GOMAXPROCS, h.NumCPU, h.Go, h.Commit)
}

// commit reports the VCS revision the binary was built from, or "unknown"
// when it was built outside a repository.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
