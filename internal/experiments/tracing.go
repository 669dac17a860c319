package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/blockdev"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/workload"
)

// The tracing experiment drives a two-middle-box chain (a transparent
// MB-FWD hop followed by an active encryption relay) with end-to-end
// tracing enabled, then reports the slowest retained traces hop by hop
// and the per-hop time budget across every collected trace. It also
// measures the fio-path cost of tracing at the default tail-sampling
// configuration against the identical chain with tracing off — the
// always-on overhead claim recorded in BENCH_results.json.

// HopBudgetRow is one stage's share of the traced command time. Self is
// exclusive time: the stage's span durations minus its child spans, so
// the rows decompose the end-to-end latency without double counting.
type HopBudgetRow struct {
	Stage    string        `json:"stage"`
	Spans    int           `json:"spans"`
	Self     time.Duration `json:"self_ns"`
	MeanSelf time.Duration `json:"mean_self_ns"`
	SharePct float64       `json:"share_pct"`
}

// TracingRun is one tracing-experiment result.
type TracingRun struct {
	Ops          int            `json:"ops"`
	BaselineIOPS float64        `json:"baseline_iops"`
	TracedIOPS   float64        `json:"traced_iops"`
	OverheadPct  float64        `json:"overhead_pct"`
	TraceCount   int            `json:"trace_count"`
	Budget       []HopBudgetRow `json:"hop_budget,omitempty"`

	// Slowest holds the tail exemplars for the printed report; the raw
	// span trees are too bulky for the results file.
	Slowest []obs.TraceRecord `json:"-"`
}

// provisionTraceChain builds the two-middle-box scenario: VM on compute1,
// ingress gateway on compute2, an MB-FWD hop on compute3, an active
// encryption relay on compute4, egress gateway on compute4.
func (l *Lab) provisionTraceChain(vmName string) (blockdev.Device, func(), error) {
	if _, err := l.Cloud.LaunchVM(vmName, "compute1"); err != nil {
		return nil, nil, err
	}
	vol, err := l.Cloud.Volumes.Create(vmName+"-vol", volumeSize)
	if err != nil {
		return nil, nil, err
	}
	tenant := l.nextTenant()
	pol := &policy.Policy{
		Tenant: tenant,
		MiddleBoxes: []policy.MiddleBoxSpec{
			{Name: "fwd", Type: policy.TypeForward, Host: "compute3"},
			{Name: "enc", Type: policy.TypeEncryption, Host: "compute4",
				Mode: policy.ModeActive, Params: map[string]string{"key": aesKeyHex}},
		},
		Volumes: []policy.VolumeBinding{{
			VM: vmName, Volume: vol.ID, Chain: []string{"fwd", "enc"},
			IngressHost: "compute2", EgressHost: "compute4",
		}},
	}
	dep, err := l.Platform.Apply(pol)
	if err != nil {
		return nil, nil, err
	}
	av := dep.Volumes[vmName+"/"+vol.ID]
	return av.Device, func() { _ = l.Platform.Teardown(tenant) }, nil
}

// tracingFio runs the experiment's mixed workload on dev.
func tracingFio(dev blockdev.Device, ops int) (*workload.FioResult, error) {
	return workload.RunFio(workload.FioConfig{
		Dev:          dev,
		RequestSize:  16 * 1024,
		Threads:      4,
		ReadFraction: 0.5,
		Ops:          ops,
		Seed:         7,
	})
}

// Tracing runs the end-to-end tracing experiment: one pass over the
// two-middle-box chain with tracing off (baseline), one with tracing on
// at the default tail-sampling config (collecting the traces), and the
// overhead between the two. Tracing on obs.Default() is restored to off
// before returning.
func Tracing(ops int) (*TracingRun, error) {
	if ops <= 0 {
		ops = 150
	}
	run := &TracingRun{Ops: ops}

	// Baseline: identical chain, tracing off.
	obs.Default().DisableTracing()
	base, err := oneTracingPass("vm-trace-base", ops)
	if err != nil {
		return nil, err
	}
	run.BaselineIOPS = base.IOPS

	// Traced pass at the default sampling configuration.
	obs.Default().EnableTracing(obs.TraceConfig{})
	defer obs.Default().DisableTracing()
	traced, err := oneTracingPass("vm-trace-on", ops)
	if err != nil {
		return nil, err
	}
	run.TracedIOPS = traced.IOPS
	if run.BaselineIOPS > 0 {
		run.OverheadPct = (run.BaselineIOPS - run.TracedIOPS) / run.BaselineIOPS * 100
	}

	all := obs.Default().Traces()
	run.TraceCount = len(all)
	run.Slowest = obs.Default().SlowTraces(5)
	run.Budget = hopBudget(all)
	return run, nil
}

// oneTracingPass provisions a fresh lab chain and runs the workload once.
func oneTracingPass(vmName string, ops int) (*workload.FioResult, error) {
	l, err := NewLab()
	if err != nil {
		return nil, err
	}
	defer l.Close()
	dev, cleanup, err := l.provisionTraceChain(vmName)
	if err != nil {
		return nil, err
	}
	res, err := tracingFio(dev, ops)
	cleanup()
	if err != nil {
		return nil, err
	}
	return res, nil
}

// hopBudget aggregates exclusive (self) time per stage across traces.
func hopBudget(traces []obs.TraceRecord) []HopBudgetRow {
	type agg struct {
		spans int
		self  time.Duration
	}
	byStage := make(map[string]*agg)
	var total time.Duration
	for _, tr := range traces {
		child := make(map[uint64]time.Duration)
		for _, sp := range tr.Spans {
			if sp.Parent != 0 {
				child[sp.Parent] += sp.Dur
			}
		}
		for _, sp := range tr.Spans {
			self := sp.Dur - child[sp.ID]
			if self < 0 {
				self = 0
			}
			a := byStage[sp.Stage]
			if a == nil {
				a = &agg{}
				byStage[sp.Stage] = a
			}
			a.spans++
			a.self += self
			total += self
		}
	}
	rows := make([]HopBudgetRow, 0, len(byStage))
	for stage, a := range byStage {
		row := HopBudgetRow{Stage: stage, Spans: a.spans, Self: a.self}
		if a.spans > 0 {
			row.MeanSelf = a.self / time.Duration(a.spans)
		}
		if total > 0 {
			row.SharePct = float64(a.self) / float64(total) * 100
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Self > rows[j].Self })
	return rows
}

// FormatTracing renders the hop-by-hop report: the slowest retained
// traces as indented span trees, the per-hop time budget, and the
// overhead line.
func FormatTracing(run *TracingRun) string {
	var b strings.Builder
	fmt.Fprintf(&b, "two-middle-box chain (MB-FWD -> active encryption relay), %d ops\n", run.Ops)
	fmt.Fprintf(&b, "collected traces: %d (tail exemplars + head samples)\n\n", run.TraceCount)

	for i, tr := range run.Slowest {
		kind := "sampled"
		if tr.Slow {
			kind = "slow"
		}
		fmt.Fprintf(&b, "trace #%d  id=%d  root=%s  total=%v  [%s]\n", i+1, tr.ID, tr.Root, tr.Dur, kind)
		writeSpanTree(&b, tr)
		b.WriteString("\n")
	}

	if len(run.Budget) > 0 {
		b.WriteString("per-hop time budget (exclusive time across all collected traces):\n")
		fmt.Fprintf(&b, "  %-28s %7s %12s %12s %7s\n", "stage", "spans", "self", "mean", "share")
		for _, row := range run.Budget {
			fmt.Fprintf(&b, "  %-28s %7d %12v %12v %6.1f%%\n",
				row.Stage, row.Spans, row.Self.Round(time.Microsecond),
				row.MeanSelf.Round(time.Microsecond), row.SharePct)
		}
		b.WriteString("\n")
	}

	fmt.Fprintf(&b, "tracing overhead: baseline %.0f IOPS -> traced %.0f IOPS (%.2f%%)\n",
		run.BaselineIOPS, run.TracedIOPS, run.OverheadPct)
	return b.String()
}

// writeSpanTree prints a trace's spans as a parent-indented tree with
// offsets from the root span's start.
func writeSpanTree(b *strings.Builder, tr obs.TraceRecord) {
	children := make(map[uint64][]obs.SpanRecord)
	var roots []obs.SpanRecord
	ids := make(map[uint64]bool, len(tr.Spans))
	for _, sp := range tr.Spans {
		ids[sp.ID] = true
	}
	for _, sp := range tr.Spans {
		if sp.Parent != 0 && ids[sp.Parent] {
			children[sp.Parent] = append(children[sp.Parent], sp)
		} else {
			roots = append(roots, sp)
		}
	}
	var walk func(sp obs.SpanRecord, depth int)
	walk = func(sp obs.SpanRecord, depth int) {
		name := sp.Stage
		if sp.Dir != "" {
			name += "." + sp.Dir
		}
		off := sp.Start.Sub(tr.Start)
		fmt.Fprintf(b, "  %s+%-10v %-40s %v", strings.Repeat("  ", depth),
			off.Round(time.Microsecond), name, sp.Dur.Round(time.Microsecond))
		if sp.Bytes > 0 {
			fmt.Fprintf(b, "  (%d B)", sp.Bytes)
		}
		b.WriteString("\n")
		for _, c := range children[sp.ID] {
			walk(c, depth+1)
		}
	}
	for _, sp := range roots {
		walk(sp, 0)
	}
}
