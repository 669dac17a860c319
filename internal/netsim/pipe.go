package netsim

import (
	"errors"
	"io"
	"os"
	"sync"
	"time"

	"repro/internal/bufpool"
	"repro/internal/faults"
	"repro/internal/simtime"
)

// ErrTimeout is returned by reads that exceed the configured deadline.
// It matches os.ErrDeadlineExceeded so net.Conn callers behave normally.
var ErrTimeout = os.ErrDeadlineExceeded

// errClosedPipe reports use of a closed connection.
var errClosedPipe = errors.New("netsim: connection closed")

// frame is a unit of in-flight data with its modelled arrival time. data is
// the unread remainder of buf's bytes; buf returns to the pool once the frame
// is fully consumed.
type frame struct {
	at   time.Time
	data []byte
	buf  *bufpool.Buf
}

// framePipe is one direction of a simulated connection: a queue of frames
// that become readable at their modelled arrival times. Writers never block
// (the peer's TCP window is assumed open); readers block until data arrives.
type framePipe struct {
	mu          sync.Mutex
	cost        PathCost
	mtu         int
	frames      []frame
	lastArrival time.Time
	closed      bool
	closeErr    error
	deadline    time.Time
	extra       time.Duration         // fault-injected added delay per frame
	throttles   []*faults.SlowBackend // host bandwidth caps; each frame draws its bytes

	wake   chan struct{} // buffered(1): new data / close / deadline change
	charge func(time.Duration)
}

func newFramePipe(cost PathCost, mtu int, charge func(time.Duration)) *framePipe {
	if mtu <= 0 {
		mtu = 64 * 1024
	}
	return &framePipe{cost: cost, mtu: mtu, wake: make(chan struct{}, 1), charge: charge}
}

func (p *framePipe) signal() {
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// write enqueues b, chunked into MTU frames, computing each frame's arrival
// per the path cost model: frames are paced by the accumulated per-hop
// processing plus serialization, then delayed by the propagation time.
func (p *framePipe) write(b []byte) (int, error) {
	return p.writeBufs([][]byte{b})
}

// writeBufs is the vectored write: the concatenation of bufs is chunked into
// pooled MTU frames directly, so a header+payload send costs one copy total
// instead of an assembly copy plus a frame copy.
func (p *framePipe) writeBufs(bufs [][]byte) (int, error) {
	total := 0
	for _, b := range bufs {
		total += len(b)
	}
	if total == 0 {
		return 0, nil
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		err := p.closeErr
		if err == nil || err == io.EOF {
			err = errClosedPipe
		}
		return 0, err
	}
	now := time.Now()
	if p.lastArrival.Before(now) {
		p.lastArrival = now
	}
	var processing time.Duration
	vi, vo := 0, 0 // cursor: bufs[vi][vo:] is the next unconsumed byte
	for remaining := total; remaining > 0; {
		n := remaining
		if n > p.mtu {
			n = p.mtu
		}
		fb := bufpool.Get(n)
		for fill := 0; fill < n; {
			for vo == len(bufs[vi]) {
				vi, vo = vi+1, 0
			}
			c := copy(fb.B[fill:], bufs[vi][vo:])
			fill += c
			vo += c
		}
		delay := p.cost.FrameDelay(n)
		processing += delay
		// Host bandwidth caps stretch the frame's serialization (queueing,
		// not processing — no CPU charge): the shared bucket may run a debt,
		// so a saturated host delays every flow crossing it.
		for _, th := range p.throttles {
			delay += th.Delay(n)
		}
		p.lastArrival = p.lastArrival.Add(delay)
		p.frames = append(p.frames, frame{at: p.lastArrival.Add(p.cost.Propagation + p.extra), data: fb.B, buf: fb})
		remaining -= n
	}
	p.mu.Unlock()
	if p.charge != nil {
		p.charge(processing)
	}
	p.signal()
	return total, nil
}

// read copies available bytes into b, blocking until the head frame's
// arrival time, new data, close, or the read deadline.
func (p *framePipe) read(b []byte) (int, error) {
	for {
		p.mu.Lock()
		if !p.deadline.IsZero() && !time.Now().Before(p.deadline) {
			p.mu.Unlock()
			return 0, ErrTimeout
		}
		if len(p.frames) > 0 {
			now := time.Now()
			head := &p.frames[0]
			if !head.at.After(now) {
				n := 0
				// Drain as many arrived frames as fit.
				for n < len(b) && len(p.frames) > 0 && !p.frames[0].at.After(now) {
					c := copy(b[n:], p.frames[0].data)
					n += c
					if c == len(p.frames[0].data) {
						p.frames[0].buf.Release()
						p.frames[0] = frame{}
						p.frames = p.frames[1:]
					} else {
						p.frames[0].data = p.frames[0].data[c:]
					}
				}
				p.mu.Unlock()
				return n, nil
			}
			wait := head.at.Sub(now)
			deadline := p.deadline
			p.mu.Unlock()
			if err := p.sleep(wait, deadline); err != nil {
				return 0, err
			}
			continue
		}
		if p.closed {
			err := p.closeErr
			p.mu.Unlock()
			if err == nil {
				err = io.EOF
			}
			return 0, err
		}
		deadline := p.deadline
		p.mu.Unlock()
		if err := p.waitForWake(deadline); err != nil {
			return 0, err
		}
	}
}

// sleep waits for d, bounded by the deadline, interruptible by wake-ups,
// with simtime's microsecond precision.
func (p *framePipe) sleep(d time.Duration, deadline time.Time) error {
	if !deadline.IsZero() {
		until := time.Until(deadline)
		if until <= 0 {
			return ErrTimeout
		}
		if until < d {
			d = until
		}
	}
	simtime.SleepWake(d, p.wake)
	return nil
}

// waitForWake blocks until new data, close, or deadline.
func (p *framePipe) waitForWake(deadline time.Time) error {
	if deadline.IsZero() {
		<-p.wake
		return nil
	}
	until := time.Until(deadline)
	if until <= 0 {
		return ErrTimeout
	}
	t := time.NewTimer(until)
	defer t.Stop()
	select {
	case <-p.wake:
		return nil
	case <-t.C:
		return ErrTimeout
	}
}

// close marks the pipe closed. Pending frames remain readable; err (or EOF)
// is reported once drained.
func (p *framePipe) close(err error) {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		p.closeErr = err
	}
	p.mu.Unlock()
	p.signal()
}

// setExtra installs the fault-injected per-frame delay (0 removes it).
// Frames already in flight keep their computed arrival times.
func (p *framePipe) setExtra(d time.Duration) {
	p.mu.Lock()
	p.extra = d
	p.mu.Unlock()
}

// setThrottles installs the host bandwidth caps future frames draw from
// (nil removes them). Frames already in flight keep their arrival times.
func (p *framePipe) setThrottles(ts []*faults.SlowBackend) {
	p.mu.Lock()
	p.throttles = ts
	p.mu.Unlock()
}

func (p *framePipe) setDeadline(t time.Time) {
	p.mu.Lock()
	p.deadline = t
	p.mu.Unlock()
	p.signal()
}
