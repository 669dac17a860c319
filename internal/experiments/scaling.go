package experiments

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/policy"
)

// ScalingRow is the aggregate write throughput of a fixed flow population
// pushed through an encryption middle-box group of a given size. The
// per-instance copy path is deliberately the bottleneck (one copy thread,
// calibrated per-batch cost), so the sweep isolates how throughput scales
// as the orchestrator would grow the group.
type ScalingRow struct {
	Instances      int     `json:"instances"`
	Flows          int     `json:"flows"`
	TotalBytes     int64   `json:"total_bytes"`
	ElapsedMs      float64 `json:"elapsed_ms"`
	ThroughputMBps float64 `json:"throughput_mbps"`
	// SpeedupVs1 is this row's throughput over the single-instance row's.
	SpeedupVs1 float64 `json:"speedup_vs_1"`
}

// Per-instance copy-path calibration for the sweep: one copy thread at
// 200 µs per 4 KiB batch caps each instance near 20 MB/s, far below the
// fabric, so the group is the resource being scaled.
const (
	scalingCopyCostNs  = 200_000
	scalingCopyBatch   = 4096
	scalingWriteChunk  = 64 << 10
	scalingMaxGroupCap = 4
)

// Scaling sweeps the encryption group across the given sizes (default
// 1, 2, 4) and measures aggregate write throughput of `flows` concurrent
// writers (default 4), each pushing perFlow bytes (default 2 MiB) through
// its own volume and spliced flow. Flow→member steering is the production
// path: the vswitch select group hashes each new flow to the least-loaded
// member, so flows spread evenly and each run is the steady state the
// orchestrator converges to at that size.
func Scaling(sizes []int, flows int, perFlow int64) ([]ScalingRow, error) {
	if len(sizes) == 0 {
		sizes = []int{1, 2, 4}
	}
	if flows <= 0 {
		flows = 4
	}
	if perFlow <= 0 {
		perFlow = 2 << 20
	}
	maxSize := scalingMaxGroupCap
	for _, n := range sizes {
		if n > maxSize {
			maxSize = n
		}
	}
	rows := make([]ScalingRow, 0, len(sizes))
	for _, n := range sizes {
		row, err := scalingOne(n, maxSize, flows, perFlow)
		if err != nil {
			return nil, fmt.Errorf("experiments: scaling at %d instances: %w", n, err)
		}
		if len(rows) > 0 && rows[0].ThroughputMBps > 0 {
			row.SpeedupVs1 = row.ThroughputMBps / rows[0].ThroughputMBps
		} else {
			row.SpeedupVs1 = 1
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// scalingOne runs the flow population against a group seeded at size n.
func scalingOne(n, maxSize, flows int, perFlow int64) (ScalingRow, error) {
	// Negligible fabric and disk costs: the relay copy gate is the only
	// contended resource, which is the quantity the sweep measures.
	model := netsim.Model{
		MTU:       8 * 1024,
		Bandwidth: 1 << 33,
		Latency:   map[netsim.HopKind]time.Duration{},
		PerPacket: map[netsim.HopKind]time.Duration{},
	}
	c, err := cloud.New(cloud.Config{ComputeHosts: 4, Model: model})
	if err != nil {
		return ScalingRow{}, err
	}
	defer c.Close()
	p := core.New(c)

	pol := &policy.Policy{
		Tenant: "tenantScale",
		MiddleBoxes: []policy.MiddleBoxSpec{{
			Name:         "enc1",
			Type:         policy.TypeEncryption,
			MinInstances: n,
			MaxInstances: maxSize,
			Params: map[string]string{
				"key":                 aesKeyHex,
				"copyThreads":         "1",
				"interceptPerBatchNs": fmt.Sprint(scalingCopyCostNs),
				"interceptBatchBytes": fmt.Sprint(scalingCopyBatch),
			},
		}},
	}
	for i := 0; i < flows; i++ {
		vmName := fmt.Sprintf("svm%d", i+1)
		if _, err := c.LaunchVM(vmName, "compute1"); err != nil {
			return ScalingRow{}, err
		}
		vol, err := c.Volumes.Create(vmName+"-vol", volumeSize)
		if err != nil {
			return ScalingRow{}, err
		}
		pol.Volumes = append(pol.Volumes, policy.VolumeBinding{
			VM: vmName, Volume: vol.ID, Chain: []string{"enc1"},
		})
	}
	dep, err := p.Apply(pol)
	if err != nil {
		return ScalingRow{}, err
	}
	defer p.Teardown("tenantScale")

	var wg sync.WaitGroup
	errs := make(chan error, flows)
	start := time.Now()
	for _, vb := range pol.Volumes {
		av := dep.Volumes[vb.VM+"/"+vb.Volume]
		wg.Add(1)
		go func(av *core.AttachedVolume) {
			defer wg.Done()
			buf := make([]byte, scalingWriteChunk)
			step := uint64(len(buf) / av.Device.BlockSize())
			for lba, written := uint64(0), int64(0); written < perFlow; written += int64(len(buf)) {
				if err := av.Device.WriteAt(buf, lba); err != nil {
					errs <- err
					return
				}
				lba += step
			}
		}(av)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	if err := <-errs; err != nil {
		return ScalingRow{}, err
	}

	total := int64(flows) * perFlow
	return ScalingRow{
		Instances:      n,
		Flows:          flows,
		TotalBytes:     total,
		ElapsedMs:      float64(elapsed.Nanoseconds()) / 1e6,
		ThroughputMBps: float64(total) / (1 << 20) / elapsed.Seconds(),
	}, nil
}

// FormatScaling renders the sweep table.
func FormatScaling(rows []ScalingRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-6s %-12s %-12s %-12s %s\n",
		"instances", "flows", "total_MiB", "elapsed_ms", "MB/s", "speedup_vs_1")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10d %-6d %-12.1f %-12.1f %-12.1f %.2fx\n",
			r.Instances, r.Flows, float64(r.TotalBytes)/(1<<20),
			r.ElapsedMs, r.ThroughputMBps, r.SpeedupVs1)
	}
	return b.String()
}
