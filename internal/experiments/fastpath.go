package experiments

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/initiator"
	"repro/internal/iscsi"
	"repro/internal/middlebox"
	"repro/internal/netsim"
	"repro/internal/target"
)

// FastPathRow is one data-plane microbenchmark result next to the recorded
// pre-optimization baseline (measured on the same harness before the pooled
// buffers, vectored PDU sends, and indexed write-back dispatch landed).
type FastPathRow struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// Metric/MetricValue carry a benchmark-specific extra metric (e.g. the
	// drain benchmarks report ns/write across the whole queue).
	Metric      string  `json:"metric,omitempty"`
	MetricValue float64 `json:"metric_value,omitempty"`

	BaselineNs     float64 `json:"baseline_ns_per_op,omitempty"`
	BaselineBytes  int64   `json:"baseline_bytes_per_op,omitempty"`
	BaselineAllocs int64   `json:"baseline_allocs_per_op,omitempty"`
	BaselineMetric float64 `json:"baseline_metric_value,omitempty"`

	// Speedup is baseline/current on the primary axis (the extra metric
	// when present, ns/op otherwise). >1 means the fast path won.
	Speedup float64 `json:"speedup"`
}

// fastPathBaseline holds the pre-optimization numbers, keyed by row name.
type fastPathBaseline struct {
	ns     float64
	bytes  int64
	allocs int64
	metric float64
}

// Recorded before the fast-path changes (single-buffer PDU assembly,
// per-message encode allocations, O(n²) write-back dispatch scan) on the
// same 2.10 GHz Xeon harness the BENCH history uses.
var fastPathBaselines = map[string]fastPathBaseline{
	"pdu_write_64k":                {ns: 38369, bytes: 73728, allocs: 1},
	"pdu_encode_write_4k":          {ns: 633.9, bytes: 4944, allocs: 2},
	"pdu_read_64k":                 {ns: 15745, bytes: 65616, allocs: 2},
	"writeback_drain_1024":         {metric: 1904},
	"writeback_overlap_drain_1024": {metric: 2215},
	"chain_write_4k":               {ns: 26320, bytes: 33108, allocs: 42},
	"chain_read_4k":                {ns: 23279, bytes: 35949, allocs: 32},
	// Measured immediately before the wire-efficiency pass (negotiated
	// bursts, MC/S forward legs, buffered PDU reads, inline execution,
	// journal-aliased write-back) on the same harness.
	"chain_write_64k": {ns: 43000, bytes: 1336, allocs: 21},
}

// FastPath runs the data-plane microbenchmarks in-process and returns each
// next to its recorded baseline: PDU codec (serialize, encode, decode),
// write-back drain at queue depth 1024 (disjoint and fully overlapping
// extents), and the full VM → active relay → target chain for 4 KiB I/O.
func FastPath() []FastPathRow {
	rows := []FastPathRow{
		fastPathRow("pdu_write_64k", "", benchPDUWrite64K),
		fastPathRow("pdu_encode_write_4k", "", benchPDUEncodeWrite4K),
		fastPathRow("pdu_read_64k", "", benchPDURead64K),
		fastPathRow("writeback_drain_1024", "ns/write", func(b *testing.B) { benchDrain(b, 1024, false) }),
		fastPathRow("writeback_overlap_drain_1024", "ns/write", func(b *testing.B) { benchDrain(b, 1024, true) }),
		fastPathRow("chain_write_4k", "", benchChainWrite4K),
		fastPathRow("chain_read_4k", "", benchChainRead4K),
		fastPathRow("chain_write_64k", "", benchChainWrite64K),
	}
	return rows
}

// fastPathRow runs one benchmark body under testing.Benchmark and pairs the
// result with its baseline.
func fastPathRow(name, metric string, fn func(b *testing.B)) FastPathRow {
	res := testing.Benchmark(fn)
	row := FastPathRow{
		Name:        name,
		NsPerOp:     float64(res.NsPerOp()),
		BytesPerOp:  res.AllocedBytesPerOp(),
		AllocsPerOp: res.AllocsPerOp(),
		Metric:      metric,
	}
	if metric != "" {
		row.MetricValue = res.Extra[metric]
	}
	base, ok := fastPathBaselines[name]
	if !ok {
		return row
	}
	row.BaselineNs = base.ns
	row.BaselineBytes = base.bytes
	row.BaselineAllocs = base.allocs
	row.BaselineMetric = base.metric
	switch {
	case metric != "" && row.MetricValue > 0:
		row.Speedup = base.metric / row.MetricValue
	case row.NsPerOp > 0:
		row.Speedup = base.ns / row.NsPerOp
	}
	return row
}

// FormatFastPath renders the comparison table.
func FormatFastPath(rows []FastPathRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-30s %12s %12s %10s %10s %8s\n",
		"benchmark", "before", "after", "B/op", "allocs/op", "speedup")
	for _, r := range rows {
		before, after := r.BaselineNs, r.NsPerOp
		unit := "ns/op"
		if r.Metric != "" {
			before, after = r.BaselineMetric, r.MetricValue
			unit = r.Metric
		}
		fmt.Fprintf(&sb, "%-30s %10.0f %s %10.0f %s %10d %10d %7.1fx\n",
			r.Name, before, unit, after, unit, r.BytesPerOp, r.AllocsPerOp, r.Speedup)
	}
	return sb.String()
}

// --- benchmark bodies (mirrors of the package-level Benchmark* tests) ---

func benchPDUWrite64K(b *testing.B) {
	din := &iscsi.DataIn{Final: true, Data: make([]byte, 64*1024)}
	p := din.Encode()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.WriteTo(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func benchPDUEncodeWrite4K(b *testing.B) {
	data := make([]byte, 4096)
	var wire iscsi.PDU
	cmd := &iscsi.SCSICommand{
		Final: true, Write: true,
		ExpectedDataTransferLength: 4096,
		Data:                       data,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cmd.ITT = uint32(i)
		if cmd.EncodeInto(&wire) == nil {
			b.Fatal("nil PDU")
		}
	}
}

func benchPDURead64K(b *testing.B) {
	din := &iscsi.DataIn{Final: true, ITT: 7, Data: make([]byte, 64*1024)}
	wire := din.Encode().Bytes()
	r := bytes.NewReader(wire)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(wire)
		p, err := iscsi.ReadPDU(r)
		if err != nil {
			b.Fatal(err)
		}
		p.Release()
	}
}

// fastPathGate blocks WriteAt until the gate closes, building a
// deterministic pending-queue depth before the drain starts.
type fastPathGate struct {
	blockdev.Device
	gate chan struct{}
}

func (g *fastPathGate) WriteAt(p []byte, lba uint64) error {
	<-g.gate
	return g.Device.WriteAt(p, lba)
}

func benchDrain(b *testing.B, depth int, overlap bool) {
	b.ReportAllocs()
	buf := make([]byte, 512)
	var total time.Duration
	for iter := 0; iter < b.N; iter++ {
		b.StopTimer()
		disk, err := blockdev.NewMemDisk(512, uint64(depth)+16)
		if err != nil {
			b.Fatal(err)
		}
		gate := make(chan struct{})
		wb := middlebox.NewWriteBack(&fastPathGate{Device: disk, gate: gate}, middlebox.NewJournal(0))
		b.StartTimer()
		start := time.Now()
		for i := 0; i < depth; i++ {
			lba := uint64(0)
			if !overlap {
				lba = uint64(i)
			}
			if err := wb.WriteAt(buf, lba); err != nil {
				b.Fatal(err)
			}
		}
		close(gate)
		if err := wb.Flush(); err != nil {
			b.Fatal(err)
		}
		total += time.Since(start)
		b.StopTimer()
		_ = wb.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(total.Nanoseconds())/float64(b.N*depth), "ns/write")
}

// fastPathChain assembles VM — active relay — target over net.Pipe links
// (zero modelled interception cost, so the benchmark isolates code-path
// cost, not the calibrated simulation charges).
func fastPathChain(b testing.TB) *initiator.Session {
	disk, err := blockdev.NewMemDisk(512, 2048)
	if err != nil {
		b.Fatal(err)
	}
	// The backend serves a memory disk, so quiet connections may execute
	// commands inline in the read loop (the production stormd backend keeps
	// per-command goroutines; its disks model seek latency).
	tsrv := target.NewServer(target.WithInlineExec())
	const iqn = "iqn.2016-04.edu.purdue.storm:fastpath"
	if err := tsrv.AddTarget(iqn, disk); err != nil {
		b.Fatal(err)
	}
	relay, err := middlebox.NewRelay(middlebox.Config{
		Name: "mb1",
		Mode: middlebox.Active,
		Dial: func(netsim.Addr) (net.Conn, error) {
			c, s := net.Pipe()
			go tsrv.Serve(newPipeListener(s))
			return c, nil
		},
		NextHop: netsim.Addr{Net: netsim.StorageNet, IP: "10.0.0.100", Port: 3260},
		Cost:    middlebox.CostModel{MTU: 8192, BatchSize: 65536},
	})
	if err != nil {
		b.Fatal(err)
	}
	front, back := net.Pipe()
	go relay.Serve(newPipeListener(back))
	b.Cleanup(func() {
		relay.Close()
		tsrv.Close()
	})
	sess, err := initiator.Login(front, initiator.Config{
		InitiatorIQN: "iqn.vm1", TargetIQN: iqn,
	})
	if err != nil {
		b.Fatalf("login through relay: %v", err)
	}
	b.Cleanup(func() { _ = sess.Close() })
	return sess
}

func benchChainWrite4K(b *testing.B) {
	sess := fastPathChain(b)
	buf := make([]byte, 4096)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := sess.Write(uint64((i%64)*8), buf, 512); err != nil {
			b.Fatal(err)
		}
	}
}

func benchChainWrite64K(b *testing.B) {
	sess := fastPathChain(b)
	buf := make([]byte, 64*1024)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := sess.Write(uint64((i%8)*128), buf, 512); err != nil {
			b.Fatal(err)
		}
	}
}

func benchChainRead4K(b *testing.B) {
	sess := fastPathChain(b)
	buf := make([]byte, 4096)
	if err := sess.Write(0, buf, 512); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sess.ReadInto(buf, 0, 8, 512); err != nil {
			b.Fatal(err)
		}
	}
}

// pipeListener yields a single pre-established connection, then blocks until
// closed — the minimal net.Listener for net.Pipe-backed servers.
type pipeListener struct {
	ch   chan net.Conn
	done chan struct{}
	once sync.Once
}

func newPipeListener(c net.Conn) *pipeListener {
	l := &pipeListener{ch: make(chan net.Conn, 1), done: make(chan struct{})}
	l.ch <- c
	return l
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr {
	return &net.UnixAddr{Name: "fastpath", Net: "pipe"}
}
