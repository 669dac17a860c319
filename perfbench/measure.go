package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"repro/internal/obs"
)

// beds is how many times a measured run deploys the tenant. Each bed is
// set up from a fresh registry and measured for a fifth of the window;
// every end-to-end metric is the median over the beds, so a host stall
// during one bed moves one value, not the run.
const beds = 5

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap is the live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// bedFigures are one bed's end-to-end figures, keyed like the metrics.
type bedFigures map[string]float64

// measuredRun is the end-to-end run: per bed, set-up, then a closed-loop
// window with tracing off and the registry scraped once per second, every
// read verified, then the image (and on cas-mixed the replicas) checked.
func measuredRun(w workloadSpec, seed int64, window time.Duration, dir string) (*result, error) {
	res := &result{Correct: true}
	var figs []bedFigures
	samples := make(map[string]int)
	for i := 0; i < beds; i++ {
		obs.Default().Reset()
		b, err := newBed(w, seed+int64(i), fmt.Sprintf("%s/state%d", dir, i))
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		f, c, err := measureBed(b, window/beds)
		ok := false
		if err == nil {
			ok, err = checkOutputs(b)
		}
		b.close()
		if err != nil {
			return nil, err
		}
		f["setup_s"] = b.times.total.Seconds()
		figs = append(figs, f)
		res.account(c)
		res.Correct = res.Correct && ok
		samples["ops"] += int(c.reads + c.writes)
		samples["reads"] += int(c.reads)
		samples["writes"] += int(c.writes)
	}
	samples["beds"] = beds
	for _, m := range []struct{ name, unit, n string }{
		{"ops_per_s", "1/s", "ops"},
		{"read_p50_us", "us", "reads"},
		{"write_p50_us", "us", "writes"},
		{"write_p90_us", "us", "writes"},
		{"cpu_us_per_op", "us", "ops"},
		{"heap_growth_b_per_op", "B", "ops"},
		{"setup_s", "s", "beds"},
	} {
		var xs []float64
		for _, f := range figs {
			xs = append(xs, f[m.name])
		}
		fmt.Printf("beds %-22s %.4g\n", m.name, xs)
		res.set(m.name, median(xs), m.unit, samples[m.n])
	}
	return res, nil
}

// measureBed measures one window on b.
func measureBed(b *bed, window time.Duration) (bedFigures, opCounts, error) {
	heap0 := liveHeap()
	sc := startScraper(obs.Default())
	cpu0 := cpuTime()
	ws := runWindow(b, window, true)
	cpu := cpuTime() - cpu0
	sc.halt()
	heap1 := liveHeap()

	c := ws.counts
	ops := float64(c.reads + c.writes)
	if ops == 0 {
		return nil, c, fmt.Errorf("no op completed in the window")
	}
	rl, wl := latencies(b.clients, true), latencies(b.clients, false)
	f := bedFigures{
		"ops_per_s":            ops / ws.elapsed.Seconds(),
		"read_p50_us":          quantile(rl, 0.50) / 1e3,
		"write_p50_us":         quantile(wl, 0.50) / 1e3,
		"write_p90_us":         quantile(wl, 0.90) / 1e3,
		"cpu_us_per_op":        float64(cpu.Nanoseconds()) / 1e3 / ops,
		"heap_growth_b_per_op": (float64(heap1) - float64(heap0)) / ops,
	}
	// The read percentiles above the median, and the write ones above p90,
	// are printed, not reported: they did not repeat from run to run (see
	// perfbench/reasoning.json).
	fmt.Printf("window %.2fs: %d reads, %d writes, %d errors, %d refusals, %d mismatches, failed_frac %.6f\n",
		ws.elapsed.Seconds(), c.reads, c.writes, c.errors, c.refusals, c.mismatches,
		float64(c.failed)/float64(c.attempted))
	for _, d := range []struct {
		name string
		xs   []float64
	}{{"read", rl}, {"write", wl}} {
		fmt.Printf("  %-5s p50/p75/p90/p95/p99/p99.9 us", d.name)
		for _, q := range []float64{0.5, 0.75, 0.9, 0.95, 0.99, 0.999} {
			fmt.Printf(" %.0f", quantile(d.xs, q)/1e3)
		}
		fmt.Println()
	}
	return f, c, nil
}

// checkOutputs is the post-window correctness check: the whole image reads
// back as written, and on cas-mixed every backend converges to the primary
// image. (Reads that mismatched during the window are counted by
// result.account.)
func checkOutputs(b *bed) (bool, error) {
	bad, err := b.verifyImage()
	if err != nil {
		return false, err
	}
	ok := bad == 0
	if bad > 0 {
		fmt.Printf("read-back: %d blocks differ from the shadow image\n", bad)
	}
	if b.w.cas {
		if err := b.verifyReplicas(); err != nil {
			fmt.Printf("replicas: %v\n", err)
			ok = false
		}
	}
	return ok, nil
}
