package main

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/cas"
	"repro/internal/experiments"
	"repro/internal/iscsi"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sdn"
	"repro/internal/services/crypt"
	"repro/internal/simtime"
	"repro/internal/wal"
)

// The probes time direct calls into each layer's public functions, with
// no bed running, and report ns/op (allocs/op where named).

const (
	lookupIters   = 200000
	modelledSleep = 100 * time.Microsecond
)

// runProbes adds every unit-cost probe's metrics to res.
func runProbes(res *result, dir string) error {
	p99, _, n := probeSimtime(32, 100)
	res.set("simtime.overshoot_p99_us_c32", p99, "us", n)
	p99, cpu, n := probeSimtime(2, 1000)
	res.set("simtime.overshoot_p99_us_c2", p99, "us", n)
	res.set("simtime.cpu_per_modelled_us", cpu, "ratio", n)

	late, n, err := probeFrame(500)
	if err != nil {
		return fmt.Errorf("netsim probe: %w", err)
	}
	res.set("netsim.frame_late_p99_us", late, "us", n)

	reg := obs.NewRegistry()
	t := reg.Timer("stage.probe")
	res.set("obs.observe_ns", nsPerOp(200000, func(i int) { t.Observe(time.Duration(i)) }), "ns", 200000)
	treg := obs.NewRegistry()
	treg.EnableTracing(obs.TraceConfig{})
	traced := func(int) {
		sp := treg.StartTraced(obs.StageInitiator, "read", blockBytes)
		sp.End()
	}
	res.set("obs.start_traced_ns", nsPerOp(100000, traced), "ns", 100000)
	res.set("obs.start_traced_allocs", testing.AllocsPerRun(1000, func() { traced(0) }), "count", 1000)

	data := make([]byte, blockBytes)
	var wire iscsi.PDU
	var sink discardBuffers
	cmd := &iscsi.SCSICommand{Final: true, Write: true, ExpectedDataTransferLength: blockBytes, Data: data}
	encode := func(i int) {
		cmd.ITT = uint32(i)
		_, _ = cmd.EncodeInto(&wire).WriteTo(&sink)
	}
	res.set("iscsi.encode_write_4k_ns", nsPerOp(200000, encode), "ns", 200000)
	res.set("iscsi.encode_write_4k_allocs", testing.AllocsPerRun(1000, func() { encode(0) }), "count", 1000)
	din := (&iscsi.DataIn{Final: true, ITT: 7, Data: data}).Encode().Bytes()
	rd := bytes.NewReader(din)
	var decodeErr error
	res.set("iscsi.decode_4k_ns", nsPerOp(200000, func(int) {
		rd.Reset(din)
		p, err := iscsi.ReadPDU(rd)
		if err != nil {
			decodeErr = err
			return
		}
		p.Release()
	}), "ns", 200000)
	if decodeErr != nil {
		return fmt.Errorf("iscsi decode probe: %w", decodeErr)
	}

	key, _ := hex.DecodeString(aesKeyHex)
	ciph, err := crypt.NewCipher(key)
	if err != nil {
		return err
	}
	res.set("crypt.transform_4k_ns", nsPerOp(50000, func(i int) { ciph.Transform(data, uint64(i), 512) }), "ns", 50000)

	putNew, putDup, err := probeCAS(20000)
	if err != nil {
		return fmt.Errorf("cas probe: %w", err)
	}
	res.set("cas.put_new_us", putNew, "us", 20000)
	res.set("cas.put_dup_us", putDup, "us", 20000)

	p50, p99, n, err := probeWAL(filepath.Join(dir, "wal-probe"), 1000)
	if err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	res.set("wal.append_sync_p50_us", p50, "us", n)
	res.set("wal.append_sync_p99_us", p99, "us", n)
	return nil
}

// nsPerOp times n calls of fn and returns the mean in nanoseconds.
func nsPerOp(n int, fn func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// discardBuffers is a vectored sink, the BuffersWriter path a netsim.Conn
// gives the PDU encoder.
type discardBuffers struct{ n int64 }

func (d *discardBuffers) Write(p []byte) (int, error) {
	d.n += int64(len(p))
	return len(p), nil
}

func (d *discardBuffers) WriteBuffers(bufs ...[]byte) (int, error) {
	n := 0
	for _, b := range bufs {
		n += len(b)
	}
	d.n += int64(n)
	return n, nil
}

// probeSimtime runs sleepers goroutines each issuing per 100 µs
// simtime.Sleep calls. It returns the p99 overshoot in µs, the process CPU
// spent per modelled µs slept, and the sample count.
func probeSimtime(sleepers, per int) (float64, float64, int) {
	over := make([][]float64, sleepers)
	var wg sync.WaitGroup
	cpu0 := cpuTime()
	for s := 0; s < sleepers; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			xs := make([]float64, 0, per)
			for i := 0; i < per; i++ {
				t0 := time.Now()
				simtime.Sleep(modelledSleep)
				xs = append(xs, float64((time.Since(t0)-modelledSleep).Nanoseconds())/1e3)
			}
			over[s] = xs
		}(s)
	}
	wg.Wait()
	cpu := cpuTime() - cpu0
	var all []float64
	for _, xs := range over {
		all = append(all, xs...)
	}
	sort.Float64s(all)
	modelled := time.Duration(sleepers*per) * modelledSleep
	return quantile(all, 0.99), float64(cpu) / float64(modelled), len(all)
}

// probeFrame sends n 4 KiB frames one at a time over a host-to-host
// storage-network conn on the lab fabric and returns the p99 of each
// frame's arrival minus its modelled arrival (propagation plus frame
// delay), in µs.
func probeFrame(n int) (float64, int, error) {
	f := netsim.NewFabric(experiments.LabModel())
	a, err := f.AddHost("a", map[netsim.Network]string{netsim.StorageNet: "10.9.0.1"})
	if err != nil {
		return 0, 0, err
	}
	bh, err := f.AddHost("b", map[netsim.Network]string{netsim.StorageNet: "10.9.0.2"})
	if err != nil {
		return 0, 0, err
	}
	ln, err := bh.NewEndpoint("sink").Listen(netsim.StorageNet, 3260)
	if err != nil {
		return 0, 0, err
	}
	defer ln.Close()
	accepted := make(chan io.ReadCloser, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			accepted <- nil
			return
		}
		accepted <- c
	}()
	conn, err := a.NewEndpoint("src").Dial(netsim.StorageNet, "10.9.0.2:3260")
	if err != nil {
		return 0, 0, err
	}
	defer conn.Close()
	peer := <-accepted
	if peer == nil {
		return 0, 0, fmt.Errorf("accept failed")
	}
	defer peer.Close()
	cost := f.Model().Cost(netsim.PathHops(f, "a", false, "b", false))
	modelled := cost.Propagation + cost.FrameDelay(blockBytes)
	frame := make([]byte, blockBytes)
	got := make([]byte, blockBytes)
	late := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := conn.Write(frame); err != nil {
			return 0, 0, err
		}
		if _, err := io.ReadFull(peer, got); err != nil {
			return 0, 0, err
		}
		late = append(late, float64((time.Since(t0)-modelled).Nanoseconds())/1e3)
	}
	sort.Float64s(late)
	return quantile(late, 0.99), n, nil
}

// probeLookup times the vswitch flow lookup for the bed's chain flow on
// its ingress-host switch, in ns/op.
func probeLookup(b *bed) float64 {
	d := b.cloud.Plane.Deployment(b.depID)
	if d == nil {
		return 0
	}
	sw := b.cloud.Controller.SwitchFor(d.Ingress.Host)
	flow := netsim.Flow{
		Net: netsim.InstanceNet, SrcIP: d.Ingress.InstanceIP, SrcPort: 40000,
		DstIP: d.Egress.InstanceIP, DstPort: 3260,
	}
	return nsPerOp(lookupIters, func(int) { sw.Lookup(flow, sdn.IngressStation) })
}

// probeCAS times n Store.Write calls of fresh content and n of duplicate
// content (two referenced blocks alternated over the other slots, so every
// write is a cross-slot dedup hit) on a MemBackend, in µs/op.
func probeCAS(n int) (float64, float64, error) {
	const slots = 4096
	st, err := cas.Open(cas.NewMemBackend(slots), blockBytes, slots)
	if err != nil {
		return 0, 0, err
	}
	buf := make([]byte, blockBytes)
	var werr error
	putNew := nsPerOp(n, func(i int) {
		stamp(buf, 3, uint64(i))
		if _, err := st.Write(uint64(i%slots), buf); err != nil {
			werr = err
		}
	})
	x, y := make([]byte, blockBytes), make([]byte, blockBytes)
	stamp(x, 4, 1)
	stamp(y, 4, 2)
	if _, err := st.Write(0, x); err != nil {
		return 0, 0, err
	}
	if _, err := st.Write(1, y); err != nil {
		return 0, 0, err
	}
	putDup := nsPerOp(n, func(i int) {
		blk := x
		if (i/(slots-2))%2 == 1 {
			blk = y
		}
		if _, err := st.Write(uint64(2+i%(slots-2)), blk); err != nil {
			werr = err
		}
	})
	return putNew / 1e3, putDup / 1e3, werr
}

// probeWAL times n Append+Sync pairs of 4 KiB records on a fresh log with
// fsync on every append, and returns the p50 and p99 in µs.
func probeWAL(dir string, n int) (float64, float64, int, error) {
	l, err := wal.Create(dir, wal.Meta{}, wal.Options{})
	if err != nil {
		return 0, 0, 0, err
	}
	defer os.RemoveAll(dir)
	data := make([]byte, blockBytes)
	xs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		seq, err := l.Append(uint64(i), data)
		if err == nil {
			err = l.Sync()
		}
		if err != nil {
			_ = l.Close()
			return 0, 0, 0, err
		}
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/1e3)
		if err := l.Commit(seq); err != nil {
			_ = l.Close()
			return 0, 0, 0, err
		}
	}
	if err := l.Close(); err != nil {
		return 0, 0, 0, err
	}
	sort.Float64s(xs)
	return quantile(xs, 0.5), quantile(xs, 0.99), n, nil
}
