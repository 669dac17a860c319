// Command perfbench is the repository benchmark. It drives the system as
// deployed — cloud.New, core.Platform.Apply and the attached
// initiator.Device, with the default obs registry wired in and per-command
// tracing off — through one of three closed-loop tenant workloads, checks
// every read against the client's shadow copy, and prints the end-to-end
// metrics. With --trace 1 it instead makes the separate traced run that
// yields the per-layer metrics: trace self time per stage, the LEGACY /
// MB-FWD / passive / active configuration ladder, snapshot deltas of the
// program's own counters, and direct timed calls into each layer.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload crypt-lab --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// workloadSpec is one named workload.
type workloadSpec struct {
	name string
	// lab selects the calibrated testbed: experiments.LabModel fabric plus
	// the lab disk read/write service models. Otherwise the fabric is the
	// soak's zero-cost one and the volume has no service model.
	lab bool
	// cas routes the volume through a replicate box (3 CAS backends,
	// quorum 2, durable dispatch WAL, scrub off) instead of the active AES
	// encryption relay, and makes half the writes recurring blocks.
	cas bool
	// warmOps is the per-client op count of the set-up warm-up.
	warmOps int
	// ladderOps is the per-client op count of each ladder rung (and, for
	// cas-mixed, of the replicate pass).
	ladderOps int
}

// workloads are the runnable workloads. BENCHMARK.json lists the two
// crypt ones; cas-mixed stays runnable by hand, and its op stream feeds the
// traced run's replicate pass, but its end-to-end figures swing too much
// between runs for a regression bound (see perfbench/reasoning.json).
var workloads = map[string]workloadSpec{
	"crypt-lab":  {name: "crypt-lab", lab: true, warmOps: 300, ladderOps: 800},
	"crypt-fast": {name: "crypt-fast", warmOps: 3000, ladderOps: 6000},
	"cas-mixed":  replicateWorkload,
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// samples is each metric's sample count, printed in the report above
	// the JSON line.
	samples map[string]int
}

func (r *result) set(name string, v float64, unit string, samples int) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
		r.samples = make(map[string]int)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
	r.samples[name] = samples
}

// account adds a phase's op tallies: a failed op counts against attempted,
// and a read that disagreed with the shadow copy makes the run incorrect.
func (r *result) account(c opCounts) {
	r.Attempted += c.attempted
	r.Failed += c.failed
	if c.mismatches > 0 {
		r.Correct = false
	}
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: crypt-lab, crypt-fast or cas-mixed")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 10, "measured window length in seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end run; 1: traced per-layer run")
		workdir = flag.String("workdir", filepath.Join(".bench_build", "perfbench"), "scratch directory for WAL state and trace output")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		fail(fmt.Errorf("unknown workload %q", *name))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fail(fmt.Errorf("bad --seconds %v or --trace %d", *seconds, *trace))
	}
	// Each run gets its own state directory, removed on exit.
	dir, err := filepath.Abs(filepath.Join(*workdir, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		fail(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fail(err)
	}
	window := time.Duration(*seconds * float64(time.Second))
	var res *result
	if *trace == 1 {
		res, err = tracedRun(w, *seed, window, dir, *workdir)
	} else {
		res, err = measuredRun(w, *seed, window, dir)
	}
	_ = os.RemoveAll(dir)
	if err != nil {
		fail(err)
	}
	report(w, *seed, *trace, res)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// report prints the human-readable table and then the JSON result line.
func report(w workloadSpec, seed int64, trace int, res *result) {
	fmt.Printf("perfbench %s seed %d trace %d: correct=%v attempted=%d failed=%d\n",
		w.name, seed, trace, res.Correct, res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("  %-34s %14.4f %-6s n=%d\n", n, m.Value, m.Unit, res.samples[n])
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}
