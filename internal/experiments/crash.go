// Crash suite: the durability counterpart of the chaos scenarios. It
// prices the crash-durable journal (what fsync coupling does to the active
// relay's early-ack latency, across group-commit windows) and then proves
// the payoff: a relay killed mid-workload at seed-chosen points is replaced,
// its WAL reopened and replayed, and the volume ends byte-identical to a
// crash-free run — the property an in-memory journal cannot offer.
package experiments

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/blockdev"
	"repro/internal/faults"
	"repro/internal/initiator"
	"repro/internal/middlebox"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/target"
)

// DurabilityRow prices one journal configuration: the client-visible cost
// of acknowledged writes when the ack is coupled to an fsync policy.
type DurabilityRow struct {
	// Journal names the configuration: "memory" (no WAL — crash loses the
	// journal) or "wal-<window>" (durable, group-commit window).
	Journal string `json:"journal"`
	Writes  int    `json:"writes"`
	// AvgAckUs / P99AckUs are the per-write acknowledgement latencies.
	AvgAckUs float64 `json:"avg_ack_us"`
	P99AckUs float64 `json:"p99_ack_us"`
	// Fsyncs counts WAL fsync calls during the run: the group-commit
	// window's lever (0 for the in-memory journal).
	Fsyncs int64 `json:"fsyncs"`
}

// CrashRun is one crash-suite execution for the results history.
type CrashRun struct {
	Durability []DurabilityRow `json:"durability"`
	// Replay holds the kill/replay verdicts, one per crash seed; any
	// DataLoss=true fails the run.
	Replay []ChaosResult `json:"replay"`
}

// crashLab is one VM→active-relay→target universe over netsim for the
// crash suite. The backend write delay builds journal backlog so a kill
// finds acknowledged-but-unapplied writes (non-vacuous replay).
type crashLab struct {
	fab    *netsim.Fabric
	vmHost *netsim.Host
	mbHost *netsim.Host
	tsrv   *target.Server
	iqn    string
	sn     int
}

// delayDisk postpones every backend write; see crashLab.
type delayDisk struct {
	blockdev.Device
	delay time.Duration
}

func (d *delayDisk) WriteAt(p []byte, lba uint64) error {
	if d.delay > 0 {
		time.Sleep(d.delay)
	}
	return d.Device.WriteAt(p, lba)
}

func newCrashLab(backendDelay time.Duration) (*crashLab, error) {
	model := netsim.Model{MTU: 8 * 1024, Bandwidth: 1 << 32,
		Latency: map[netsim.HopKind]time.Duration{}, PerPacket: map[netsim.HopKind]time.Duration{}}
	fab := netsim.NewFabric(model)
	vmHost, err := fab.AddHost("compute1", map[netsim.Network]string{netsim.StorageNet: "10.0.0.1"})
	if err != nil {
		return nil, err
	}
	mbHost, err := fab.AddHost("mb1", map[netsim.Network]string{netsim.StorageNet: "10.0.0.50"})
	if err != nil {
		return nil, err
	}
	storHost, err := fab.AddHost("storage1", map[netsim.Network]string{netsim.StorageNet: "10.0.0.100"})
	if err != nil {
		return nil, err
	}
	disk, err := blockdev.NewMemDisk(512, 1024)
	if err != nil {
		return nil, err
	}
	tsrv := target.NewServer()
	const iqn = "iqn.2016-04.edu.purdue.storm:crashbench"
	if err := tsrv.AddTarget(iqn, &delayDisk{Device: disk, delay: backendDelay}); err != nil {
		return nil, err
	}
	storLn, err := storHost.NewEndpoint("tgt").Listen(netsim.StorageNet, 3260)
	if err != nil {
		return nil, err
	}
	go tsrv.Serve(storLn)
	return &crashLab{fab: fab, vmHost: vmHost, mbHost: mbHost, tsrv: tsrv, iqn: iqn}, nil
}

func (l *crashLab) Close() { l.tsrv.Close() }

// startRelay launches an active relay on a fresh port; dir == "" selects
// the in-memory journal.
func (l *crashLab) startRelay(dir string, window time.Duration) (*middlebox.Relay, string, error) {
	l.sn++
	name := fmt.Sprintf("mb1-%d", l.sn)
	relay, err := middlebox.NewRelay(middlebox.Config{
		Name:              name,
		Mode:              middlebox.Active,
		Endpoint:          l.mbHost.NewEndpoint("relay-" + name),
		NextHop:           netsim.Addr{Net: netsim.StorageNet, IP: "10.0.0.100", Port: 3260},
		Cost:              middlebox.CostModel{MTU: 8192, BatchSize: 65536},
		JournalDir:        dir,
		JournalSyncWindow: window,
		// Two forward connections so every crash scenario also proves MC/S
		// journal replay stays byte-identical.
		ForwardConns: 2,
		Recovery:     middlebox.RecoveryConfig{BackoffBase: time.Millisecond, BackoffCap: 4 * time.Millisecond},
	})
	if err != nil {
		return nil, "", err
	}
	port := 3260 + l.sn
	ln, err := l.mbHost.NewEndpoint("front-"+name).Listen(netsim.StorageNet, port)
	if err != nil {
		relay.Close()
		return nil, "", err
	}
	go relay.Serve(ln)
	return relay, fmt.Sprintf("10.0.0.50:%d", port), nil
}

func (l *crashLab) login(addr, ep string) (*initiator.Session, error) {
	conn, err := l.vmHost.NewEndpoint(ep).Dial(netsim.StorageNet, addr)
	if err != nil {
		return nil, err
	}
	return initiator.Login(conn, initiator.Config{
		InitiatorIQN: "iqn.vm-crashbench", TargetIQN: l.iqn,
	})
}

// crashBenchPattern is write i's 512-byte payload, distinct per write.
func crashBenchPattern(i int) []byte {
	p := make([]byte, 512)
	for k := range p {
		p[k] = byte(i*31 + k*7 + 11)
	}
	return p
}

const (
	crashBenchWrites = 48
	crashBenchLBAs   = 32
)

// durabilityCost measures acked-write latency under one journal config.
func durabilityCost(name, dir string, window time.Duration, writes int) (DurabilityRow, error) {
	row := DurabilityRow{Journal: name, Writes: writes}
	lab, err := newCrashLab(0)
	if err != nil {
		return row, err
	}
	defer lab.Close()
	relay, addr, err := lab.startRelay(dir, window)
	if err != nil {
		return row, err
	}
	defer relay.Close()
	sess, err := lab.login(addr, "vm")
	if err != nil {
		return row, err
	}
	fsyncs := obs.Default().Counter("wal.fsyncs")
	startFsyncs := fsyncs.Value()
	// Concurrent writers share the session's command window, so a non-zero
	// group-commit window can batch their appends into one fsync — the
	// tradeoff the sweep prices (single-stream writes never batch).
	const writers = 4
	perWriter := writes / writers
	lats := make([]time.Duration, writers*perWriter)
	payload := crashBenchPattern(0)
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			for i := 0; i < perWriter; i++ {
				lba := uint64((w*perWriter + i) % crashBenchLBAs)
				t0 := time.Now()
				if err := sess.Write(lba, payload, 512); err != nil {
					errs <- fmt.Errorf("%s writer %d write %d: %w", name, w, i, err)
					return
				}
				lats[w*perWriter+i] = time.Since(t0)
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < writers; w++ {
		if err := <-errs; err != nil {
			return row, err
		}
	}
	row.Writes = writers * perWriter
	if err := sess.Flush(); err != nil {
		return row, err
	}
	if err := sess.Logout(); err != nil {
		return row, err
	}
	row.Fsyncs = fsyncs.Value() - startFsyncs
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	var total time.Duration
	for _, d := range lats {
		total += d
	}
	row.AvgAckUs = float64(total.Microseconds()) / float64(len(lats))
	row.P99AckUs = float64(lats[len(lats)*99/100].Microseconds())
	return row, nil
}

// crashBenchHash reads back every LBA the workload touched.
func crashBenchHash(sess *initiator.Session) ([32]byte, error) {
	var sum [32]byte
	h := sha256.New()
	for lba := 0; lba < crashBenchLBAs; lba++ {
		b, err := sess.Read(uint64(lba), 1, 512)
		if err != nil {
			return sum, fmt.Errorf("read-back lba %d: %w", lba, err)
		}
		h.Write(b)
	}
	copy(sum[:], h.Sum(nil))
	return sum, nil
}

// crashBaselineHash runs the workload crash-free and returns the content hash.
func crashBaselineHash(stateRoot string) ([32]byte, error) {
	var sum [32]byte
	lab, err := newCrashLab(200 * time.Microsecond)
	if err != nil {
		return sum, err
	}
	defer lab.Close()
	relay, addr, err := lab.startRelay(filepath.Join(stateRoot, "baseline"), 0)
	if err != nil {
		return sum, err
	}
	defer relay.Close()
	sess, err := lab.login(addr, "vm")
	if err != nil {
		return sum, err
	}
	for i := 0; i < crashBenchWrites; i++ {
		if err := sess.Write(uint64(i%crashBenchLBAs), crashBenchPattern(i), 512); err != nil {
			return sum, fmt.Errorf("baseline write %d: %w", i, err)
		}
	}
	if err := sess.Flush(); err != nil {
		return sum, err
	}
	sum, err = crashBenchHash(sess)
	if err != nil {
		return sum, err
	}
	return sum, sess.Logout()
}

// crashReplayScenario kills the relay at the seed-chosen tick, recovers
// onto a replacement (WAL reopen + in-order replay), finishes the workload
// there, and verdicts the surviving content against the crash-free hash.
func crashReplayScenario(stateRoot string, seed int64, want [32]byte) (ChaosResult, error) {
	tick := faults.CrashPoint(seed, 2, crashBenchWrites-2)
	res := ChaosResult{
		Scenario: fmt.Sprintf("kill-replay-seed%d-tick%d", seed, tick),
		Writes:   crashBenchWrites,
		Faults:   1,
	}
	lab, err := newCrashLab(200 * time.Microsecond)
	if err != nil {
		return res, err
	}
	defer lab.Close()
	dir1 := filepath.Join(stateRoot, fmt.Sprintf("seed%d-gen1", seed))
	relay1, addr1, err := lab.startRelay(dir1, 0)
	if err != nil {
		return res, err
	}
	defer relay1.Close()

	sched := faults.NewSchedule()
	faults.Crash(sched, seed, 2, crashBenchWrites-2, relay1.Kill)

	sess, err := lab.login(addr1, "vm")
	if err != nil {
		return res, err
	}
	replayed, crashed := 0, false
	for i := 0; i < crashBenchWrites; i++ {
		err := sess.Write(uint64(i%crashBenchLBAs), crashBenchPattern(i), 512)
		if err != nil {
			if crashed || !relay1.Killed() {
				return res, fmt.Errorf("write %d failed unexpectedly: %w", i, err)
			}
			crashed = true
			_ = sess.Close()
			relay2, addr2, rerr := lab.startRelay(filepath.Join(stateRoot, fmt.Sprintf("seed%d-gen2", seed)), 0)
			if rerr != nil {
				return res, rerr
			}
			defer relay2.Close()
			n, rerr := relay2.RecoverFrom(dir1)
			if rerr != nil {
				return res, fmt.Errorf("replay after crash at tick %d: %w", tick, rerr)
			}
			replayed = n
			if sess, rerr = lab.login(addr2, "vm2"); rerr != nil {
				return res, rerr
			}
			i-- // retry the failed, never-acknowledged write
			continue
		}
		sched.Step()
	}
	res.Replayed = replayed
	if !crashed {
		res.DataLoss = true
		res.Detail = "workload finished without observing the crash (vacuous run)"
		return res, nil
	}
	if err := sess.Flush(); err != nil {
		return res, err
	}
	got, err := crashBenchHash(sess)
	if err != nil {
		return res, err
	}
	if err := sess.Logout(); err != nil {
		return res, err
	}
	switch {
	case got != want:
		res.DataLoss = true
		res.Detail = "content hash diverged from crash-free run (acknowledged write lost or misordered)"
	default:
		if entries, err := os.ReadDir(dir1); err == nil && len(entries) != 0 {
			res.DataLoss = true
			res.Detail = fmt.Sprintf("journal dir still holds %d entries after replay", len(entries))
			return res, nil
		}
		res.Detail = fmt.Sprintf("killed at tick %d; %d journal record(s) replayed; content identical to crash-free run", tick, replayed)
	}
	return res, nil
}

// RunCrashSuite executes the durability-cost sweep and the kill/replay
// scenarios. Callers treat any Replay entry with DataLoss=true as a failed
// run.
func RunCrashSuite() (*CrashRun, error) {
	stateRoot, err := os.MkdirTemp("", "storm-crash-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(stateRoot)

	run := &CrashRun{}
	const costWrites = 200
	configs := []struct {
		name   string
		dir    string
		window time.Duration
	}{
		{"memory", "", 0},
		{"wal-0", filepath.Join(stateRoot, "cost-w0"), 0},
		{"wal-1ms", filepath.Join(stateRoot, "cost-w1"), time.Millisecond},
		{"wal-5ms", filepath.Join(stateRoot, "cost-w5"), 5 * time.Millisecond},
	}
	for _, c := range configs {
		row, err := durabilityCost(c.name, c.dir, c.window, costWrites)
		if err != nil {
			return nil, fmt.Errorf("durability %s: %w", c.name, err)
		}
		run.Durability = append(run.Durability, row)
	}

	want, err := crashBaselineHash(stateRoot)
	if err != nil {
		return nil, fmt.Errorf("crash-free baseline: %w", err)
	}
	replayedTotal := 0
	for _, seed := range []int64{1, 5, 9} {
		res, err := crashReplayScenario(stateRoot, seed, want)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", res.Scenario, err)
		}
		replayedTotal += res.Replayed
		run.Replay = append(run.Replay, res)
	}
	// Across seeds at least one kill must catch unapplied acknowledged
	// writes, or the suite proved nothing about replay.
	if replayedTotal == 0 && len(run.Replay) > 0 {
		last := &run.Replay[len(run.Replay)-1]
		last.DataLoss = true
		last.Detail = "no seed replayed any journal record (vacuous suite)"
	}
	return run, nil
}

// FormatCrash renders the crash run as report tables.
func FormatCrash(run *CrashRun) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %8s %12s %12s %8s\n", "journal", "writes", "avg ack us", "p99 ack us", "fsyncs")
	for _, r := range run.Durability {
		fmt.Fprintf(&b, "%-10s %8d %12.1f %12.1f %8d\n", r.Journal, r.Writes, r.AvgAckUs, r.P99AckUs, r.Fsyncs)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-28s %8s %9s %-6s detail\n", "scenario", "writes", "replayed", "loss")
	for _, r := range run.Replay {
		verdict := "ok"
		if r.DataLoss {
			verdict = "LOST"
		}
		fmt.Fprintf(&b, "%-28s %8d %9d %-6s %s\n", r.Scenario, r.Writes, r.Replayed, verdict, r.Detail)
	}
	return b.String()
}
