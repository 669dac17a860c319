// Command stormbench regenerates every table and figure of the paper's
// evaluation (Section V) against the simulated testbed, printing the same
// rows and series the paper reports. Absolute numbers reflect the scaled
// cost model; the shapes (who wins, by roughly what factor, where the
// crossovers fall) are the reproduction targets — see EXPERIMENTS.md.
//
// The evaluation is one ordered table of suites. Each suite prints its
// report and appends one dated entry to its section of the results record
// (BENCH_results.json), whose key is the suite's name; every other section
// of the record is carried forward untouched. A suite whose gate fails
// (data loss, a soak/backup/overload violation) stops the run with a
// non-zero exit after its entry is recorded.
//
// Suites, in run order: chaos, crash, tracing, soak, backup, overload,
// fastpath, scaling, routing (Figures 4 & 7), processing_by_size (5 & 8),
// processing_by_threads (6 & 9), cpu_breakdown (10), postmark (11),
// replication (13), table1 (Tables I & II), table3 (Table III), ablations.
//
// Usage:
//
//	stormbench                         # every suite except soak
//	stormbench -suite routing          # one suite
//	stormbench -suite chaos,crash      # several, run in table order
//	stormbench -suite soak -soaktenants 500 -soakdur 10s
//	stormbench -suite backup -backupchunks 512 -backuprounds 4
//	stormbench -suite overload -overloadwrites 400
//	stormbench -ops 200 -repdur 4s     # fio ops per point, replication run length
//	stormbench -json out.json          # results record (default BENCH_results.json; '' disables)
//	stormbench -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"repro/internal/experiments"
)

// config carries the size flags the suites read.
type config struct {
	ops                        int
	repDur, soakDur            time.Duration
	soakTenants                int
	backupChunks, backupRounds int
	overloadWrites             int
}

// suite is one section of the evaluation. run prints the suite's report
// and returns its record; a failed gate returns the record together with
// the error, so the failing run is still recorded.
type suite struct {
	name  string // the -suite name and the record's section key
	title string
	ops   bool // the suite reads -ops; its entries note fio_ops
	run   func(c config) (any, error)
}

var suites = []suite{
	{"chaos", "Chaos: failure injection, reconnect, journal replay", false, func(config) (any, error) {
		return printed(experiments.FormatChaos, func(r []experiments.ChaosResult) error { return lostData("chaos", r) })(experiments.RunChaosSuite())
	}},
	{"crash", "Crash durability: WAL fsync cost and kill/replay", false, func(config) (any, error) {
		return printed(experiments.FormatCrash, func(r *experiments.CrashRun) error { return lostData("crash", r.Replay) })(experiments.RunCrashSuite())
	}},
	{"tracing", "Tracing: end-to-end trace breakdown and overhead", true, func(c config) (any, error) {
		return printed(experiments.FormatTracing, func(r *experiments.TracingRun) error {
			if r.OverheadPct > 5 {
				fmt.Printf("WARNING: tracing overhead %.2f%% exceeds the 5%% budget\n", r.OverheadPct)
			}
			return nil // a warning, not a failed run
		})(experiments.Tracing(c.ops))
	}},
	{"soak", "Soak: sustained multi-tenant churn under load", false, func(c config) (any, error) {
		return printed(experiments.FormatSoak, func(r *experiments.SoakRun) error { return violated("soak", r.Violations) })(
			experiments.RunSoak(experiments.SoakConfig{Tenants: c.soakTenants, Duration: c.soakDur}))
	}},
	{"backup", "Backup: content-addressed replication, dedup, scrub repair", false, func(c config) (any, error) {
		return printed(experiments.FormatBackup, func(r *experiments.BackupRun) error { return violated("backup", r.Violations) })(
			experiments.RunBackup(experiments.BackupConfig{Chunks: c.backupChunks, Rounds: c.backupRounds}))
	}},
	{"overload", "Overload: exhaustion, backpressure, circuit breakers", false, func(c config) (any, error) {
		return printed(experiments.FormatOverload, func(r *experiments.OverloadRun) error { return violated("overload", r.Violations) })(
			experiments.RunOverload(experiments.OverloadConfig{BrownoutWrites: c.overloadWrites}))
	}},
	{"fastpath", "Fast path: data-plane microbenchmarks (before → after)", false, func(config) (any, error) {
		return printed(experiments.FormatFastPath, nil)(experiments.FastPath(), nil)
	}},
	{"scaling", "Scale-out: aggregate write throughput vs group size", false, func(config) (any, error) {
		return printed(experiments.FormatScaling, nil)(experiments.Scaling(nil, 0, 0))
	}},
	{"routing", "Figures 4 & 7: traffic redirection overhead (LEGACY vs MB-FWD)", true, func(c config) (any, error) {
		fmt.Println("paper: norm IOPS 0.93/0.86/0.83/0.82; norm latency 1.08/1.22/1.25/1.30")
		return printed(experiments.FormatRoutingTable, nil)(experiments.RoutingOverhead(experiments.Options{FioOps: c.ops}))
	}},
	{"processing_by_size", "Figures 5 & 8: middle-box processing overhead by I/O size", true, func(c config) (any, error) {
		fmt.Println("paper: active norm IOPS 1.01/1.00/1.06/1.14; active norm latency 0.98/1.01/0.94/0.89")
		return printed(processingTable(false), nil)(experiments.ProcessingOverheadBySize(experiments.Options{FioOps: c.ops}))
	}},
	{"processing_by_threads", "Figures 6 & 9: middle-box processing overhead by thread count (16K)", true, func(c config) (any, error) {
		fmt.Println("paper: active norm IOPS 1.06/1.10/1.27/1.39; active norm latency 0.95/0.91/0.79/0.70")
		return printed(processingTable(true), nil)(experiments.ProcessingOverheadByThreads(experiments.Options{FioOps: c.ops / 2}))
	}},
	{"cpu_breakdown", "Figure 10: CPU utilization breakdown (FTP, AES-256)", false, func(config) (any, error) {
		fmt.Println("paper: tenant-side 85%+24.4%; middle-box 25.1%+37.1%+25% (~20% total savings)")
		return printed(experiments.FormatCPUTable, nil)(experiments.CPUBreakdown())
	}},
	{"postmark", "Figure 11: PostMark with tenant-side vs middle-box encryption", false, func(config) (any, error) {
		fmt.Println("paper: middle-box improves every component by 23-34%")
		return printed(experiments.FormatPostmarkTable, nil)(experiments.RunPostmarkComparison())
	}},
	{"replication", "Figure 13: MySQL stand-in TPS with replica failure", false, func(c config) (any, error) {
		fmt.Println("paper: 3 replicas ~1.8x one store; slight drop after a replica fails; service continues")
		return printed(experiments.FormatReplicationRun, nil)(experiments.RunReplication(c.repDur))
	}},
	{"table1", "Tables I & II: semantics reconstruction", false, func(config) (any, error) {
		return printed(func(r *experiments.ReconstructionResult) string { return experiments.FormatReconstruction(r, 60) }, nil)(experiments.TableI())
	}},
	{"table3", "Table III: backdoor malware installation footprint", false, func(config) (any, error) {
		steps, log, err := experiments.TableIII()
		if err != nil {
			return nil, err
		}
		fmt.Print(experiments.FormatMalware(steps, log))
		return map[string]any{"steps": steps, "events": len(log), "file_ops": experiments.FileLevelOps(log)}, nil
	}},
	{"ablations", "Ablations (design choices)", true, runAblations},
}

// printed adapts an experiment's (result, error) to a suite run: it prints
// the result with format and applies gate (nil for none).
func printed[T any](format func(T) string, gate func(T) error) func(T, error) (any, error) {
	return func(v T, err error) (any, error) {
		if err != nil {
			return nil, err
		}
		fmt.Print(format(v))
		if gate != nil {
			err = gate(v)
		}
		return v, err
	}
}

func processingTable(byThreads bool) func([]experiments.ProcessingRow) string {
	return func(rows []experiments.ProcessingRow) string {
		return experiments.FormatProcessingTable(rows, byThreads)
	}
}

// lostData is the chaos and crash gate: no scenario may lose data.
func lostData(name string, rows []experiments.ChaosResult) error {
	for _, r := range rows {
		if r.DataLoss {
			return fmt.Errorf("%s scenario %s lost data: %s", name, r.Scenario, r.Detail)
		}
	}
	return nil
}

// violated is the soak, backup and overload gate: no violation recorded.
func violated(name string, violations []string) error {
	if len(violations) > 0 {
		return fmt.Errorf("%s failed: %s", name, violations[0])
	}
	return nil
}

// runAblations runs the design-choice sweeps; a failed sweep is reported
// and skipped rather than failing the run.
func runAblations(c config) (any, error) {
	out := make(map[string][]experiments.AblationRow)
	sweep := func(key, title string) func([]experiments.AblationRow, error) {
		return func(rows []experiments.AblationRow, err error) {
			if err != nil {
				fmt.Println(strings.ReplaceAll(key, "_", " "), "failed:", err)
				return
			}
			fmt.Print(experiments.FormatAblation(title, rows))
			out[key] = rows
		}
	}
	sweep("gateway_placement", "gateway placement (16K, 1 thread)")(experiments.AblationGatewayPlacement(c.ops))
	sweep("chain_length", "chain length (forward MBs on path)")(experiments.AblationChainLength(c.ops))
	sweep("journal_capacity", "active-relay journal capacity (write-heavy)")(experiments.AblationJournalCapacity(c.ops / 2))
	sweep("replica_factor", "replication factor (OLTP TPS)")(experiments.AblationReplicaFactor(c.repDur / 3))
	return out, nil
}

func main() {
	var all []string
	for _, s := range suites {
		if s.name != "soak" {
			all = append(all, s.name)
		}
	}
	var cfg config
	var (
		names      = flag.String("suite", strings.Join(all, ","), "comma list of suites to run (soak runs only when named)")
		jsonPath   = flag.String("json", "BENCH_results.json", "append each suite's dated entry to this results record (empty disables)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile here")
		memProfile = flag.String("memprofile", "", "write a heap profile here on exit")
	)
	flag.IntVar(&cfg.ops, "ops", 150, "fio operations per data point")
	flag.DurationVar(&cfg.repDur, "repdur", 3*time.Second, "replication run duration")
	flag.IntVar(&cfg.soakTenants, "soaktenants", 500, "steady tenant count for the soak suite")
	flag.DurationVar(&cfg.soakDur, "soakdur", 10*time.Second, "measured soak duration (half quiet, half churn)")
	flag.IntVar(&cfg.backupChunks, "backupchunks", 512, "backup image size in chunks for the backup suite")
	flag.IntVar(&cfg.backupRounds, "backuprounds", 4, "backup generations for the backup suite")
	flag.IntVar(&cfg.overloadWrites, "overloadwrites", 400, "writes per measured brownout phase for the overload suite")
	flag.Parse()
	stop, err := startProfiles(*cpuProfile, *memProfile)
	if err == nil {
		err = run(*names, cfg, *jsonPath)
		stop()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "stormbench:", err)
		os.Exit(1)
	}
}

// startProfiles starts the CPU profile; the returned stop ends it and
// writes the heap profile (call it before exiting).
func startProfiles(cpuPath, memPath string) (func(), error) {
	stopCPU := func() {}
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		stopCPU = func() { pprof.StopCPUProfile(); f.Close() }
	}
	return func() {
		stopCPU()
		if memPath == "" {
			return
		}
		f, err := os.Create(memPath)
		if err == nil {
			runtime.GC()
			err = pprof.WriteHeapProfile(f)
			f.Close()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "memprofile:", err)
		}
	}, nil
}

// selectSuites resolves a comma list of suite names to table entries, in
// table order.
func selectSuites(names string) ([]suite, error) {
	want := strings.Split(names, ",")
	for _, n := range want {
		if !slices.ContainsFunc(suites, func(s suite) bool { return s.name == n }) {
			return nil, fmt.Errorf("unknown suite %q", n)
		}
	}
	var out []suite
	for _, s := range suites {
		if slices.Contains(want, s.name) {
			out = append(out, s)
		}
	}
	return out, nil
}

// run executes the selected suites in order, stopping at the first error,
// and appends an entry for every suite that produced a record to the
// results record at jsonPath (when set).
func run(names string, c config, jsonPath string) error {
	sel, err := selectSuites(names)
	if err != nil {
		return err
	}
	added := make(map[string]json.RawMessage)
	for _, s := range sel {
		fmt.Printf("\n================ %s ================\n", s.title)
		rec, runErr := s.run(c)
		if rec != nil {
			fioOps := 0
			if s.ops {
				fioOps = c.ops
			}
			if added[s.name], err = entry(time.Now().UTC().Format(time.RFC3339), fioOps, rec); err != nil {
				return err
			}
		}
		if err = runErr; err != nil {
			break
		}
	}
	if jsonPath != "" && len(added) > 0 {
		if werr := writeResults(jsonPath, added); werr != nil {
			fmt.Fprintln(os.Stderr, "stormbench: write results:", werr)
		} else {
			fmt.Printf("\nresults written to %s\n", jsonPath)
		}
	}
	return err
}

// entry renders one dated history entry: "when", then "fio_ops" for suites
// that read -ops, then the record's own fields (or "rows", for a record
// that is a list).
func entry(when string, fioOps int, rec any) (json.RawMessage, error) {
	body, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	if body[0] != '{' {
		body = append(append([]byte(`{"rows":`), body...), '}')
	}
	head := fmt.Sprintf(`{"when":%q`, when) // RFC3339 text: %q quotes it as JSON
	if fioOps > 0 {
		head += fmt.Sprintf(`,"fio_ops":%d`, fioOps)
	}
	if len(body) > 2 {
		head += ","
	}
	return append([]byte(head), body[1:]...), nil
}

// writeResults appends each added entry to its section's history in the
// record at path, creating the section (or the file) when absent. Sections
// are written in key order; the values of the others are carried forward
// unchanged.
func writeResults(path string, added map[string]json.RawMessage) error {
	record := make(map[string]json.RawMessage)
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &record); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	for key, e := range added {
		var history []json.RawMessage
		if record[key] != nil {
			if err := json.Unmarshal(record[key], &history); err != nil {
				return fmt.Errorf("%s: section %q is not a dated history: %w", path, key, err)
			}
		}
		merged, err := json.Marshal(append(history, e))
		if err != nil {
			return err
		}
		record[key] = merged
	}
	data, err := json.MarshalIndent(record, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
