package netsim

import (
	"errors"
	"sync"
	"time"

	"repro/internal/faults"
)

// Fault-injection errors. Aborted connections report these from every
// blocked or subsequent Read/Write, emulating a connection reset; refused
// dials return them wrapped.
var (
	// ErrHostDown reports traffic to or from a host cut with CutHost.
	ErrHostDown = errors.New("netsim: host down")
	// ErrPartitioned reports traffic across a partition installed with
	// Partition.
	ErrPartitioned = errors.New("netsim: hosts partitioned")
	// ErrConnReset reports a connection severed with CutLink. Unlike
	// CutHost, no dial block is installed: an immediate redial succeeds.
	ErrConnReset = errors.New("netsim: connection reset")
)

// connTrack links a live connection pair to the fault plane: which two hosts
// it touches and the handle to abort it. Both Conn halves share one track;
// the first Close/Abort retires it.
type connTrack struct {
	fabric *Fabric
	aHost  string
	bHost  string
	dial   *Conn
	once   sync.Once
	// onClose is the route's OnClose, run once the track retires.
	onClose func()
}

func (t *connTrack) remove() {
	if t == nil {
		return
	}
	t.once.Do(func() {
		t.fabric.mu.Lock()
		delete(t.fabric.tracks, t)
		t.fabric.mu.Unlock()
		if t.onClose != nil {
			t.onClose()
		}
	})
}

func (t *connTrack) touches(host string) bool {
	return t.aHost == host || t.bHost == host
}

func (t *connTrack) between(a, b string) bool {
	return (t.aHost == a && t.bHost == b) || (t.aHost == b && t.bHost == a)
}

type partKey struct{ a, b string }

func pkey(a, b string) partKey {
	if a > b {
		a, b = b, a
	}
	return partKey{a, b}
}

// checkDialFault rejects a dial blocked by an active fault. Called with
// f.mu held.
func (f *Fabric) checkDialFault(srcHost, dstHost string) error {
	if _, down := f.downHosts[srcHost]; down {
		return ErrHostDown
	}
	if _, down := f.downHosts[dstHost]; down {
		return ErrHostDown
	}
	if _, cut := f.parts[pkey(srcHost, dstHost)]; cut {
		return ErrPartitioned
	}
	return nil
}

// admitConn runs the fault checks for a new connection and, if admitted,
// registers its track and returns the extra per-frame delay its pipes must
// model (the sum of both endpoints' host delays) plus the token buckets of
// any throttled endpoint hosts.
func (f *Fabric) admitConn(t *connTrack) (time.Duration, []*faults.SlowBackend, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.checkDialFault(t.aHost, t.bHost); err != nil {
		return 0, nil, err
	}
	if f.tracks == nil {
		f.tracks = make(map[*connTrack]struct{})
	}
	f.tracks[t] = struct{}{}
	return f.hostDelay[t.aHost] + f.hostDelay[t.bHost], f.throttlesFor(t), nil
}

// throttlesFor collects the token buckets capping a connection's endpoint
// hosts. Called with f.mu held.
func (f *Fabric) throttlesFor(t *connTrack) []*faults.SlowBackend {
	var ts []*faults.SlowBackend
	if sb := f.hostThrottle[t.aHost]; sb != nil {
		ts = append(ts, sb)
	}
	if sb := f.hostThrottle[t.bHost]; sb != nil && t.bHost != t.aHost {
		ts = append(ts, sb)
	}
	return ts
}

// abortMatching collects live connections satisfying match under the lock,
// then aborts them outside it (Abort re-enters the fabric to retire the
// track). Returns the number aborted.
func (f *Fabric) abortMatching(match func(*connTrack) bool, reason error) int {
	f.mu.Lock()
	var victims []*Conn
	for t := range f.tracks {
		if match(t) {
			victims = append(victims, t.dial)
		}
	}
	f.mu.Unlock()
	for _, c := range victims {
		c.Abort(reason)
	}
	return len(victims)
}

// CutHost takes a host off the fabric: every live connection touching it is
// aborted with ErrHostDown and new dials to or from it are refused until
// HealHost. Returns the number of connections aborted.
func (f *Fabric) CutHost(name string) int {
	f.mu.Lock()
	if f.downHosts == nil {
		f.downHosts = make(map[string]struct{})
	}
	f.downHosts[name] = struct{}{}
	f.mu.Unlock()
	return f.abortMatching(func(t *connTrack) bool { return t.touches(name) }, ErrHostDown)
}

// HealHost re-admits a host cut with CutHost. Existing aborted connections
// stay dead; new dials succeed.
func (f *Fabric) HealHost(name string) {
	f.mu.Lock()
	delete(f.downHosts, name)
	f.mu.Unlock()
}

// Partition severs connectivity between two hosts: live connections between
// them are aborted with ErrPartitioned and dials across the pair are refused
// until HealPartition. Traffic to third hosts is unaffected. Returns the
// number of connections aborted.
func (f *Fabric) Partition(a, b string) int {
	f.mu.Lock()
	if f.parts == nil {
		f.parts = make(map[partKey]struct{})
	}
	f.parts[pkey(a, b)] = struct{}{}
	f.mu.Unlock()
	return f.abortMatching(func(t *connTrack) bool { return t.between(a, b) }, ErrPartitioned)
}

// HealPartition removes the partition between two hosts.
func (f *Fabric) HealPartition(a, b string) {
	f.mu.Lock()
	delete(f.parts, pkey(a, b))
	f.mu.Unlock()
}

// CutLink aborts every live connection between two hosts with ErrConnReset
// without blocking future dials — a transient blip: the victim observes a
// reset and may reconnect immediately. Returns the number aborted.
func (f *Fabric) CutLink(a, b string) int {
	return f.abortMatching(func(t *connTrack) bool { return t.between(a, b) }, ErrConnReset)
}

// SetHostDelay adds d of one-way delay to every frame crossing the named
// host, on live connections and future dials alike (a congested or
// brown-out host). d = 0 removes the delay.
func (f *Fabric) SetHostDelay(name string, d time.Duration) {
	f.mu.Lock()
	if f.hostDelay == nil {
		f.hostDelay = make(map[string]time.Duration)
	}
	if d == 0 {
		delete(f.hostDelay, name)
	} else {
		f.hostDelay[name] = d
	}
	var update []*connTrack
	for t := range f.tracks {
		if t.touches(name) {
			update = append(update, t)
		}
	}
	delays := make([]time.Duration, len(update))
	for i, t := range update {
		delays[i] = f.hostDelay[t.aHost] + f.hostDelay[t.bHost]
	}
	f.mu.Unlock()
	for i, t := range update {
		t.dial.out.setExtra(delays[i])
		t.dial.in.setExtra(delays[i])
	}
}

// SetHostThrottle caps the named host's aggregate bandwidth with a token
// bucket: every frame crossing the host — either direction, any connection,
// live or future — draws its byte count from one shared bucket refilling at
// rate bytes/sec up to burst, so a busy host slows *all* of its flows
// together rather than each in isolation. This is the brownout injection
// behind "1 slow of 3" overload scenarios: the host stays up and correct,
// just late. rate <= 0 removes the cap; frames already in flight keep their
// arrival times.
func (f *Fabric) SetHostThrottle(name string, rate, burst float64) {
	f.mu.Lock()
	if f.hostThrottle == nil {
		f.hostThrottle = make(map[string]*faults.SlowBackend)
	}
	if rate <= 0 {
		delete(f.hostThrottle, name)
	} else {
		f.hostThrottle[name] = faults.NewSlowBackend(rate, burst)
	}
	var update []*connTrack
	for t := range f.tracks {
		if t.touches(name) {
			update = append(update, t)
		}
	}
	lists := make([][]*faults.SlowBackend, len(update))
	for i, t := range update {
		lists[i] = f.throttlesFor(t)
	}
	f.mu.Unlock()
	for i, t := range update {
		t.dial.out.setThrottles(lists[i])
		t.dial.in.setThrottles(lists[i])
	}
}

// LiveConns returns the number of tracked live connections — a leak check
// for fault tests.
func (f *Fabric) LiveConns() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.tracks)
}
