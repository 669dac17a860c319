package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/blockdev"
	"repro/internal/cas"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/netsim"
	"repro/internal/policy"
)

const (
	volBytes     = 16 << 20 // tenant volume size
	blockBytes   = 4096     // request size
	clients      = 2        // closed-loop clients (one per vCPU)
	clientBlocks = volBytes / blockBytes / clients
	prefillBytes = 64 << 10 // prefill write size
	recurring    = 64       // cas-mixed recurring block pool
	aesKeyHex    = "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
	tenant       = "bench"
	chainBox     = "mb1"
)

// fabricModel returns the workload's fabric: the calibrated lab model or
// the soak's zero-cost one.
func fabricModel(w workloadSpec) netsim.Model {
	if w.lab {
		return experiments.LabModel()
	}
	return netsim.Model{
		MTU:       8 * 1024,
		Bandwidth: 1 << 33,
		Latency:   map[netsim.HopKind]time.Duration{},
		PerPacket: map[netsim.HopKind]time.Duration{},
	}
}

// newCloud boots the four-compute-host topology with the workload's
// fabric and disk models.
func newCloud(w workloadSpec) (*cloud.Cloud, error) {
	cfg := cloud.Config{ComputeHosts: 4, Model: fabricModel(w)}
	if w.lab {
		cfg.DiskRead = experiments.LabDiskReadModel()
		cfg.DiskWrite = experiments.LabDiskWriteModel()
	}
	return cloud.New(cfg)
}

// boxSpec is the workload's middle-box: the active AES relay
// (MB-ACTIVE-RELAY) or the replicate box, pinned to compute3.
func boxSpec(w workloadSpec) policy.MiddleBoxSpec {
	if w.cas {
		return policy.MiddleBoxSpec{
			Name: chainBox, Type: policy.TypeReplicate, Host: "compute3",
			Params: map[string]string{
				"replicaBackends": "3",
				"replicaQuorum":   "2",
				"scrubInterval":   "0",
			},
		}
	}
	return policy.MiddleBoxSpec{
		Name: chainBox, Type: policy.TypeEncryption, Host: "compute3",
		Mode: policy.ModeActive, Params: map[string]string{"key": aesKeyHex},
	}
}

// setupTimes are the spans around the benchmark's own set-up calls.
type setupTimes struct {
	cloudNew, volCreate, apply, prefill, total time.Duration
}

// bed is one deployed tenant: cloud, platform, the attached device and the
// shadow image every read is checked against.
type bed struct {
	w     workloadSpec
	cloud *cloud.Cloud
	plat  *core.Platform
	dep   *core.TenantDeployment
	depID string
	dev   blockdev.Device

	// image is the tenant's expected volume content; unknown marks 4 KiB
	// blocks whose content an errored write left undetermined.
	image   []byte
	unknown []bool
	recur   [][]byte
	clients []*client
	times   setupTimes
}

// newBed boots the cloud, applies the tenant policy in the §V-A worst-case
// placement (VM compute1, ingress compute2, box compute3, egress
// compute4), prefills the volume and warms the path up.
func newBed(w workloadSpec, seed int64, stateDir string) (*bed, error) {
	b := &bed{w: w}
	t0 := time.Now()
	c, err := newCloud(w)
	if err != nil {
		return nil, err
	}
	b.cloud = c
	b.times.cloudNew = time.Since(t0)
	b.plat = core.New(c)
	b.plat.SetStateDir(stateDir)

	if _, err := c.LaunchVM("vm1", "compute1"); err != nil {
		b.close()
		return nil, err
	}
	t1 := time.Now()
	vol, err := c.Volumes.Create("vm1-data", volBytes)
	if err != nil {
		b.close()
		return nil, err
	}
	b.times.volCreate = time.Since(t1)
	pol := &policy.Policy{
		Tenant:      tenant,
		MiddleBoxes: []policy.MiddleBoxSpec{boxSpec(w)},
		Volumes: []policy.VolumeBinding{{
			VM: "vm1", Volume: vol.ID, Chain: []string{chainBox},
			IngressHost: "compute2", EgressHost: "compute4",
		}},
	}
	t2 := time.Now()
	dep, err := b.plat.Apply(pol)
	if err != nil {
		b.close()
		return nil, fmt.Errorf("apply: %w", err)
	}
	b.times.apply = time.Since(t2)
	b.dep = dep
	av := dep.Volumes["vm1/"+vol.ID]
	b.dev, b.depID = av.Device, av.DeploymentID

	if err := b.fill(seed); err != nil {
		b.close()
		return nil, err
	}
	if c := runOps(b, w.warmOps, false); c.failed > 0 {
		b.close()
		return nil, fmt.Errorf("warm-up: %d of %d ops failed or mismatched", c.failed, c.attempted)
	}
	b.times.total = time.Since(t0)
	return b, nil
}

// fill generates the seeded image and recurring blocks, prefills the
// volume with the image through the device, and creates the clients.
func (b *bed) fill(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	b.image = make([]byte, volBytes)
	rng.Read(b.image)
	b.unknown = make([]bool, volBytes/blockBytes)
	b.recur = make([][]byte, recurring)
	for i := range b.recur {
		b.recur[i] = make([]byte, blockBytes)
		rng.Read(b.recur[i])
	}
	bs := uint64(b.dev.BlockSize())
	t0 := time.Now()
	for off := 0; off < volBytes; off += prefillBytes {
		if err := b.dev.WriteAt(b.image[off:off+prefillBytes], uint64(off)/bs); err != nil {
			return fmt.Errorf("prefill at %d: %w", off, err)
		}
	}
	b.times.prefill = time.Since(t0)
	b.clients = newClients(b, seed)
	return nil
}

// close tears the tenant and the cloud down.
func (b *bed) close() {
	if b.dep != nil {
		_ = b.plat.Teardown(tenant)
		b.dep = nil
	}
	if b.cloud != nil {
		b.cloud.Close()
		b.cloud = nil
	}
}

// verifyImage reads the whole volume back through the chain and checks it
// against the shadow image (blocks an errored write left undetermined are
// adopted as read). It returns the number of mismatching 4 KiB blocks.
func (b *bed) verifyImage() (int, error) {
	bs := uint64(b.dev.BlockSize())
	buf := make([]byte, prefillBytes)
	bad := 0
	for off := 0; off < volBytes; off += prefillBytes {
		if err := b.dev.ReadAt(buf, uint64(off)/bs); err != nil {
			return bad, fmt.Errorf("read-back at %d: %w", off, err)
		}
		for i := 0; i < prefillBytes; i += blockBytes {
			blk := (off + i) / blockBytes
			want := b.image[off+i : off+i+blockBytes]
			if b.unknown[blk] {
				copy(want, buf[i:i+blockBytes])
				b.unknown[blk] = false
				continue
			}
			if string(want) != string(buf[i:i+blockBytes]) {
				bad++
			}
		}
	}
	return bad, nil
}

// verifyReplicas waits for the replicate box to drain and checks that every
// backend's logical image hashes to the primary image. Call it after
// verifyImage, which reconciles the shadow with the primary.
func (b *bed) verifyReplicas() error {
	box := b.dep.Replicator(chainBox)
	if box == nil {
		return errors.New("no replicate box in the deployment")
	}
	deadline := time.Now().Add(60 * time.Second)
	for !box.Drained() {
		if time.Now().After(deadline) {
			return errors.New("replicate box never drained")
		}
		time.Sleep(time.Millisecond)
	}
	want := cas.ID(sha256.Sum256(b.image))
	for _, t := range box.Targets() {
		got, err := t.Store().LogicalHash()
		if err != nil {
			return fmt.Errorf("backend %s: %w", t.Name(), err)
		}
		if got != want {
			return fmt.Errorf("backend %s diverged from the primary image", t.Name())
		}
	}
	return nil
}
