package main

import (
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/initiator"
	"repro/internal/obs"
	"repro/internal/xerr"
)

// recorder keeps per-op latencies (ns, saturating) in a buffer allocated
// before the measured window, so the benchmark's own bookkeeping does not
// show up in the program's heap growth. Its capacity covers a bed's window
// of a 60 s run on the fastest workload; samples past it are not kept.
type recorder struct{ s []uint32 }

func (r *recorder) add(d time.Duration) {
	if len(r.s) == cap(r.s) {
		return
	}
	v := uint32(math.MaxUint32)
	if d < math.MaxUint32 {
		v = uint32(d)
	}
	r.s = append(r.s, v)
}

// client is one closed-loop tenant thread: it owns a disjoint half of the
// volume, so its slice of the shadow image is never written by the other.
type client struct {
	id     int
	rng    *rand.Rand
	first  int // first 4 KiB block of the client's half
	wbuf   []byte
	rbuf   []byte
	seq    uint64
	reads  recorder
	writes recorder
	counts opCounts
}

// opCounts tallies one client's outcomes.
type opCounts struct {
	reads, writes     int64 // verified completions
	errors, refusals  int64 // failed ops; refusals are BUSY / overload
	mismatches        int64 // reads that disagreed with the shadow
	attempted, failed int64
}

func (c *opCounts) add(o opCounts) {
	c.reads += o.reads
	c.writes += o.writes
	c.errors += o.errors
	c.refusals += o.refusals
	c.mismatches += o.mismatches
	c.attempted += o.attempted
	c.failed += o.failed
}

// recorderCap bounds each client's per-direction latency buffer.
const recorderCap = 1 << 19

func newClients(b *bed, seed int64) []*client {
	cs := make([]*client, clients)
	for i := range cs {
		cs[i] = &client{
			id:     i,
			rng:    rand.New(rand.NewSource(seed*7919 + int64(i) + 1)),
			first:  i * clientBlocks,
			wbuf:   make([]byte, blockBytes),
			rbuf:   make([]byte, blockBytes),
			reads:  recorder{make([]uint32, 0, recorderCap)},
			writes: recorder{make([]uint32, 0, recorderCap)},
		}
	}
	return cs
}

// stamp fills buf with content unique to (client, seq).
func stamp(buf []byte, id int, seq uint64) {
	x := uint64(id)<<56 | seq
	for i := 0; i < len(buf); i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], x*0x9E3779B97F4A7C15+uint64(i))
	}
}

// step issues one op: 50/50 read/write, uniform over the client's half.
// Writes on cas-mixed carry one of the recurring blocks half the time.
func (c *client) step(b *bed, record bool) {
	r := c.rng.Uint64()
	blk := c.first + int((r>>8)%clientBlocks)
	lba := uint64(blk) * blockBytes / uint64(b.dev.BlockSize())
	shadow := b.image[blk*blockBytes : (blk+1)*blockBytes]
	c.counts.attempted++
	if r&1 == 0 {
		t0 := time.Now()
		err := b.dev.ReadAt(c.rbuf, lba)
		d := time.Since(t0)
		if err != nil {
			c.fail(err)
			return
		}
		if b.unknown[blk] {
			copy(shadow, c.rbuf)
			b.unknown[blk] = false
		} else if string(c.rbuf) != string(shadow) {
			c.counts.mismatches++
			c.counts.failed++
			return
		}
		c.counts.reads++
		if record {
			c.reads.add(d)
		}
		return
	}
	data := c.wbuf
	if b.w.cas && r&2 == 0 {
		data = b.recur[(r>>2)%recurring]
	} else {
		c.seq++
		stamp(c.wbuf, c.id, c.seq)
	}
	t0 := time.Now()
	err := b.dev.WriteAt(data, lba)
	d := time.Since(t0)
	if err != nil {
		b.unknown[blk] = true
		c.fail(err)
		return
	}
	copy(shadow, data)
	c.counts.writes++
	if record {
		c.writes.add(d)
	}
}

func (c *client) fail(err error) {
	c.counts.failed++
	if errors.Is(err, initiator.ErrTargetBusy) || xerr.Is(err, xerr.Overload) {
		c.counts.refusals++
	} else {
		c.counts.errors++
	}
}

// runOps runs a fixed op count per client (set-up warm-up, ladder rungs,
// the replicate pass) and returns this phase's totals.
func runOps(b *bed, perClient int, record bool) opCounts {
	before := snapshotCounts(b.clients)
	var wg sync.WaitGroup
	for _, c := range b.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				c.step(b, record)
			}
		}(c)
	}
	wg.Wait()
	return sinceCounts(b.clients, before)
}

// snapshotCounts copies each client's tallies.
func snapshotCounts(cs []*client) []opCounts {
	out := make([]opCounts, len(cs))
	for i, c := range cs {
		out[i] = c.counts
	}
	return out
}

// sinceCounts totals the clients' tallies since snapshotCounts.
func sinceCounts(cs []*client, before []opCounts) opCounts {
	var tot opCounts
	for i, c := range cs {
		o, p := c.counts, before[i]
		tot.add(opCounts{
			reads: o.reads - p.reads, writes: o.writes - p.writes,
			errors: o.errors - p.errors, refusals: o.refusals - p.refusals,
			mismatches: o.mismatches - p.mismatches,
			attempted:  o.attempted - p.attempted, failed: o.failed - p.failed,
		})
	}
	return tot
}

// windowStats is one timed closed-loop window's outcome.
type windowStats struct {
	elapsed time.Duration
	counts  opCounts
}

// runWindow runs every client closed-loop for d and returns the totals of
// this window alone.
func runWindow(b *bed, d time.Duration, record bool) windowStats {
	var stop atomic.Bool
	before := snapshotCounts(b.clients)
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range b.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for !stop.Load() {
				c.step(b, record)
			}
		}(c)
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	return windowStats{elapsed: time.Since(start), counts: sinceCounts(b.clients, before)}
}

// latencies merges the clients' recorded latencies of one direction
// (ns, sorted).
func latencies(cs []*client, reads bool) []float64 {
	var out []float64
	for _, c := range cs {
		r := &c.writes
		if reads {
			r = &c.reads
		}
		for _, v := range r.s {
			out = append(out, float64(v))
		}
	}
	sort.Float64s(out)
	return out
}

// quantile is the linearly interpolated q-quantile of sorted xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

// median of unsorted xs.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// scraper reads the registry once per second into a discard writer, as a
// Prometheus scrape of a deployed stormd would.
type scraper struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	durs []time.Duration
}

func startScraper(reg *obs.Registry) *scraper {
	s := &scraper{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				t0 := time.Now()
				_ = reg.WriteText(io.Discard)
				d := time.Since(t0)
				s.mu.Lock()
				s.durs = append(s.durs, d)
				s.mu.Unlock()
			}
		}
	}()
	return s
}

// halt stops the scraper, waits for it, and returns its scrape times.
func (s *scraper) halt() []time.Duration {
	close(s.stop)
	<-s.done
	return s.durs
}
