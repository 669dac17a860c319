package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/policy"
)

// traceConfig is the traced run's tracing setting: head-sample 1 in 2
// finished traces into a ring of 8192 per traced window, so per-stage self
// time rests on thousands of uniformly sampled traces rather than on the
// slowest-N exemplars (which are excluded).
var traceConfig = obs.TraceConfig{SampleEvery: 2, MaxSampled: 8192}

// traceFileCap bounds how many sampled traces the run writes out.
const traceFileCap = 4096

// tracedRun is the per-layer run. On one bed it runs untraced and traced
// windows (each a quarter of the window) for the tracing overhead and the
// trace self times, and reads the relay's busy counter
// over the untraced windows. Then it runs the configuration ladder on a
// second bed, the replicate pass on a third, and finally the direct
// unit-cost probes.
func tracedRun(w workloadSpec, seed int64, window time.Duration, dir, workdir string) (*result, error) {
	reg := obs.Default()
	reg.Reset()
	b, err := newBed(w, seed, filepath.Join(dir, "state"))
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer b.close()
	res := &result{Correct: true}
	res.set("cloud.new_ms", ms(b.times.cloudNew), "ms", 1)
	res.set("volume.create_ms", ms(b.times.volCreate), "ms", 1)
	res.set("core.apply_ms", ms(b.times.apply), "ms", 1)
	res.set("initiator.prefill_s", b.times.prefill.Seconds(), "s", 1)

	var (
		untraced, traced windowStats
		traces           []obs.TraceRecord
		scrapes          []float64
		busyNS           int64
	)
	// The windows run untraced, traced, traced, untraced, so the two kinds
	// sit at the same mean age of the bed: the registry's per-scrape cost
	// grows with every sample it holds.
	sc := startScraper(reg)
	for _, tracing := range []bool{false, true, true, false} {
		if tracing {
			reg.EnableTracing(traceConfig)
			traced.add(runWindow(b, window/4, false))
			traces = append(traces, reg.Traces()...)
			reg.DisableTracing()
		} else {
			s0 := reg.Snapshot()
			untraced.add(runWindow(b, window/4, false))
			s1 := reg.Snapshot()
			busyNS += sumCounters(s1.Counters, "relay.", ".busy_ns") - sumCounters(s0.Counters, "relay.", ".busy_ns")
		}
		scrapes = append(scrapes, timeScrape(reg))
	}
	sc.halt()
	lookupNS := probeLookup(b)
	res.account(untraced.counts)
	res.account(traced.counts)
	endSnap := reg.Snapshot()
	ok, err := checkOutputs(b)
	if err != nil {
		return nil, err
	}
	res.Correct = res.Correct && ok
	b.close()

	// obs: tracing overhead on the same bed and seed, relative to the
	// untraced ops/s (the base of the ratio).
	uOps := untraced.opsPerSec()
	tOps := traced.opsPerSec()
	res.set("obs.untraced_ops_per_s", uOps, "1/s", int(untraced.counts.reads+untraced.counts.writes))
	res.set("obs.traced_ops_per_s", tOps, "1/s", int(traced.counts.reads+traced.counts.writes))
	res.set("obs.trace_overhead_pct", 100*(uOps-tOps)/uOps, "%", 2)
	res.set("obs.scrape_ms", median(scrapes), "ms", len(scrapes))
	res.set("obs.series", float64(len(endSnap.Counters)+len(endSnap.Gauges)+len(endSnap.Histograms)), "count", 1)
	res.set("vswitch.lookup_ns", lookupNS, "ns", lookupIters)
	res.set("middlebox.busy_frac", float64(busyNS)/float64(untraced.elapsed.Nanoseconds()), "ratio", 1)

	// Trace self time per stage, mean per traced command.
	table, n := selfTimes(traces)
	res.set("trace.sampled_traces", float64(n), "count", n)
	for _, st := range []struct{ metric, stage string }{
		{"initiator.self_us", "initiator"},
		{"splice.ingress_self_us", "splice.ingress"},
		{"splice.egress_self_us", "splice.egress"},
		{"middlebox.service_self_us", "middlebox.service"},
		{"middlebox.forward_self_us", "middlebox.forward"},
		{"target.self_us", "target"},
	} {
		res.set(st.metric, table[st.stage].meanSelfUS(n), "us", table[st.stage].spans)
	}
	if err := writeTraces(workdir, w, seed, table, n, traces); err != nil {
		return nil, err
	}

	// Configuration ladder on a fresh bed of the same fabric.
	reg.Reset()
	lad, err := runLadder(w, seed, filepath.Join(dir, "ladder"))
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	for _, r := range lad {
		res.account(r.counts)
		fmt.Printf("ladder %-17s read p50 %9.1f us  write p50 %9.1f us\n", r.name, r.readP50, r.writeP50)
	}
	legacy, fwd, passive, active := lad[0], lad[1], lad[2], lad[3]
	res.set("splice.route_read_us", fwd.readP50-legacy.readP50, "us", fwd.reads)
	res.set("splice.route_write_us", fwd.writeP50-legacy.writeP50, "us", fwd.writes)
	res.set("middlebox.passive_read_us", passive.readP50-fwd.readP50, "us", passive.reads)
	res.set("middlebox.passive_write_us", passive.writeP50-fwd.writeP50, "us", passive.writes)
	res.set("middlebox.active_read_us", active.readP50-fwd.readP50, "us", active.reads)
	res.set("middlebox.active_write_us", active.writeP50-fwd.writeP50, "us", active.writes)

	// The replicate, cas and wal layers, through the cas-mixed op stream.
	reg.Reset()
	if err := replicatePass(res, seed, filepath.Join(dir, "replicate")); err != nil {
		return nil, fmt.Errorf("replicate pass: %w", err)
	}

	// Direct unit-cost probes, with the beds gone.
	if err := runProbes(res, dir); err != nil {
		return nil, err
	}
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func frac(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func (ws *windowStats) add(o windowStats) {
	ws.elapsed += o.elapsed
	ws.counts.add(o.counts)
}

func (ws windowStats) opsPerSec() float64 {
	return float64(ws.counts.reads+ws.counts.writes) / ws.elapsed.Seconds()
}

// timeScrape times one exposition of the registry, in milliseconds.
func timeScrape(reg *obs.Registry) float64 {
	t0 := time.Now()
	_ = reg.WriteText(io.Discard)
	return ms(time.Since(t0))
}

func sumCounters(m map[string]int64, prefix, suffix string) int64 {
	var n int64
	for k, v := range m {
		if strings.HasPrefix(k, prefix) && strings.HasSuffix(k, suffix) {
			n += v
		}
	}
	return n
}

// replicateRejects counts the replicate boxes' watermark refusals
// ("backpressure.<box>.rejects"), not the relays' ("backpressure.relay.…").
func replicateRejects(m map[string]int64) int64 {
	return sumCounters(m, "backpressure.", ".rejects") - sumCounters(m, "backpressure.relay.", ".rejects")
}

// replicateWorkload is the cas-mixed op stream through a replicate box (3
// CAS backends, quorum 2, a fsynced dispatch WAL, scrub off) on the
// zero-cost fabric, half of its writes one of 64 recurring blocks.
var replicateWorkload = workloadSpec{name: "cas-mixed", cas: true, warmOps: 500, ladderOps: 4000}

// replicatePass runs replicateWorkload for a fixed op count on a fresh bed,
// adds the replicate, cas and wal metrics from the counter deltas over the
// op stream to res, and checks the image and every backend's convergence.
func replicatePass(res *result, seed int64, stateDir string) error {
	b, err := newBed(replicateWorkload, seed, stateDir)
	if err != nil {
		return err
	}
	defer b.close()
	s0 := obs.Default().Snapshot()
	c := runOps(b, replicateWorkload.ladderOps, false)
	s1 := obs.Default().Snapshot()
	res.account(c)
	d := make(map[string]int64)
	for k, v := range s1.Counters {
		d[k] = v - s0.Counters[k]
	}
	dispatches := sumCounters(d, "replicate.", ".dispatches")
	stored := sumCounters(d, "replicate.", ".bytes_stored")
	hits := sumCounters(d, "replicate.", ".dedup_hits")
	puts := hits + stored/blockBytes
	res.set("replicate.hedged_frac", frac(sumCounters(d, "replicate.", ".hedged"), dispatches), "ratio", int(dispatches))
	res.set("replicate.backpressure_rejects", float64(replicateRejects(d)), "count", int(c.writes))
	res.set("replicate.pending_high", float64(gaugeHigh(s1, "replicate.", ".pending")), "count", 1)
	res.set("replicate.stored_per_logical", frac(stored, sumCounters(d, "replicate.", ".bytes_logical")), "ratio", int(c.writes))
	res.set("cas.dedup_hit_frac", frac(hits, puts), "ratio", int(puts))
	res.set("wal.fsyncs_per_write", frac(d["wal.fsyncs"], c.writes), "ratio", int(c.writes))
	ok, err := checkOutputs(b)
	res.Correct = res.Correct && ok
	return err
}

func gaugeHigh(s obs.Snapshot, prefix, suffix string) int64 {
	var hi int64
	for k, g := range s.Gauges {
		if strings.HasPrefix(k, prefix) && strings.HasSuffix(k, suffix) && g.High > hi {
			hi = g.High
		}
	}
	return hi
}

// stageSelf is one layer's accumulated trace self time.
type stageSelf struct {
	spans int
	self  time.Duration
}

func (s stageSelf) meanSelfUS(traces int) float64 {
	if traces == 0 {
		return 0
	}
	return float64(s.self.Nanoseconds()) / 1e3 / float64(traces)
}

// layerOf maps a span's stage name onto the benchmark's layer names.
func layerOf(stage string) string {
	switch {
	case stage == obs.StageGatewayIngress:
		return "splice.ingress"
	case stage == obs.StageGatewayEgress:
		return "splice.egress"
	case stage == obs.StageMBForward:
		return "splice.mbfwd"
	case strings.HasPrefix(stage, "relay.") && strings.HasSuffix(stage, ".service"):
		return "middlebox.service"
	case strings.HasPrefix(stage, "relay.") && strings.HasSuffix(stage, ".forward"):
		return "middlebox.forward"
	}
	return stage
}

// selfTimes sums each layer's self time — span duration minus the part of
// it that child spans cover — over the head-sampled initiator-rooted
// traces, and returns the table with the number of traces it rests on.
func selfTimes(traces []obs.TraceRecord) (map[string]stageSelf, int) {
	table := make(map[string]stageSelf)
	n := 0
	for _, tr := range traces {
		if tr.Slow || tr.Root != obs.StageInitiator {
			continue
		}
		n++
		for _, sp := range tr.Spans {
			var kids [][2]time.Time
			for _, c := range tr.Spans {
				if c.Parent == sp.ID && c.ID != sp.ID {
					kids = append(kids, [2]time.Time{c.Start, c.Start.Add(c.Dur)})
				}
			}
			self := sp.Dur - covered(sp.Start, sp.Start.Add(sp.Dur), kids)
			e := table[layerOf(sp.Stage)]
			e.spans++
			e.self += self
			table[layerOf(sp.Stage)] = e
		}
	}
	return table, n
}

// covered is the length of [lo, hi) that the union of ivs covers.
func covered(lo, hi time.Time, ivs [][2]time.Time) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0].Before(ivs[j][0]) })
	var total time.Duration
	cur := lo
	for _, iv := range ivs {
		s, e := iv[0], iv[1]
		if s.Before(cur) {
			s = cur
		}
		if e.After(hi) {
			e = hi
		}
		if e.After(s) {
			total += e.Sub(s)
			cur = e
		}
	}
	return total
}

// writeTraces writes the stage table and the sampled spans to
// <workdir>/traces-<workload>-seed<seed>.json.
func writeTraces(workdir string, w workloadSpec, seed int64, table map[string]stageSelf, n int, traces []obs.TraceRecord) error {
	type row struct {
		Stage      string  `json:"stage"`
		Spans      int     `json:"spans"`
		MeanSelfUS float64 `json:"mean_self_us"`
	}
	out := struct {
		Workload      string            `json:"workload"`
		Seed          int64             `json:"seed"`
		TraceConfig   obs.TraceConfig   `json:"trace_config"`
		SampledTraces int               `json:"sampled_traces"`
		Stages        []row             `json:"stages"`
		Traces        []obs.TraceRecord `json:"traces"`
	}{Workload: w.name, Seed: seed, TraceConfig: traceConfig, SampledTraces: n}
	for stage, s := range table {
		out.Stages = append(out.Stages, row{stage, s.spans, s.meanSelfUS(n)})
	}
	sort.Slice(out.Stages, func(i, j int) bool { return out.Stages[i].Stage < out.Stages[j].Stage })
	for _, tr := range traces {
		if len(out.Traces) == traceFileCap {
			break
		}
		if !tr.Slow && tr.Root == obs.StageInitiator {
			out.Traces = append(out.Traces, tr)
		}
	}
	for _, r := range out.Stages {
		fmt.Printf("stage %-20s spans %7d  mean self %9.2f us/op\n", r.Stage, r.Spans, r.MeanSelfUS)
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	path := filepath.Join(workdir, fmt.Sprintf("traces-%s-seed%d.json", w.name, seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write traces: %w", err)
	}
	fmt.Printf("traces: %d sampled traces, spans written to %s\n", n, path)
	return nil
}

// rung is one configuration of the ladder.
type rung struct {
	name              string
	readP50, writeP50 float64 // microseconds
	reads, writes     int
	counts            opCounts
}

// ladderScenarios are the paper's §V-A configurations, in ladder order.
var ladderScenarios = []string{"LEGACY", "MB-FWD", "MB-PASSIVE-RELAY", "MB-ACTIVE-RELAY"}

// ladderBox is the middle-box of a ladder rung (nil for LEGACY).
func ladderBox(scenario string) *policy.MiddleBoxSpec {
	switch scenario {
	case "MB-FWD":
		return &policy.MiddleBoxSpec{Name: chainBox, Type: policy.TypeForward, Host: "compute3"}
	case "MB-PASSIVE-RELAY", "MB-ACTIVE-RELAY":
		mode := policy.ModeActive
		if scenario == "MB-PASSIVE-RELAY" {
			mode = policy.ModePassive
		}
		return &policy.MiddleBoxSpec{
			Name: chainBox, Type: policy.TypeEncryption, Host: "compute3",
			Mode: mode, Params: map[string]string{"key": aesKeyHex},
		}
	}
	return nil
}

// runLadder runs the same op stream through LEGACY, MB-FWD, passive and
// active AES attachments, one after another on one cloud with the
// workload's fabric and disk models, in the same worst-case placement.
func runLadder(w workloadSpec, seed int64, stateDir string) ([]rung, error) {
	c, err := newCloud(w)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	p := core.New(c)
	p.SetStateDir(stateDir)
	var out []rung
	for i, sc := range ladderScenarios {
		vmName := fmt.Sprintf("ladder%d", i)
		vm, err := c.LaunchVM(vmName, "compute1")
		if err != nil {
			return nil, err
		}
		vol, err := c.Volumes.Create(vmName+"-data", volBytes)
		if err != nil {
			return nil, err
		}
		var dev blockdev.Device
		var cleanup func()
		if mb := ladderBox(sc); mb == nil {
			d, err := c.AttachVolume(vm, vol.ID)
			if err != nil {
				return nil, err
			}
			dev, cleanup = d, func() { _ = d.Close() }
		} else {
			name := fmt.Sprintf("ladder%d", i)
			dep, err := p.Apply(&policy.Policy{
				Tenant:      name,
				MiddleBoxes: []policy.MiddleBoxSpec{*mb},
				Volumes: []policy.VolumeBinding{{
					VM: vmName, Volume: vol.ID, Chain: []string{chainBox},
					IngressHost: "compute2", EgressHost: "compute4",
				}},
			})
			if err != nil {
				return nil, fmt.Errorf("%s: %w", sc, err)
			}
			dev, cleanup = dep.Volumes[vmName+"/"+vol.ID].Device, func() { _ = p.Teardown(name) }
		}
		rb := &bed{w: w, dev: dev}
		if err := rb.fill(seed); err != nil {
			cleanup()
			return nil, fmt.Errorf("%s: %w", sc, err)
		}
		counts := runOps(rb, w.warmOps, false)
		counts.add(runOps(rb, w.ladderOps, true))
		cleanup()
		rl, wl := latencies(rb.clients, true), latencies(rb.clients, false)
		out = append(out, rung{
			name: sc, readP50: quantile(rl, 0.5) / 1e3, writeP50: quantile(wl, 0.5) / 1e3,
			reads: len(rl), writes: len(wl), counts: counts,
		})
	}
	return out, nil
}
