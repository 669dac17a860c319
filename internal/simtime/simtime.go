// Package simtime provides a high-precision sleep for the simulation's
// latency models. Container kernels frequently round timer sleeps up to a
// coarse tick (~1 ms), which would swamp the microsecond-scale path costs
// the fabric models; Sleep burns the final stretch in a yielding spin so
// concurrent modelled delays stay accurate and overlap correctly even on a
// single CPU.
package simtime

import (
	"runtime"
	"time"
)

// coarse is the slack subtracted before the blocking sleep: the kernel may
// overshoot a timer by up to roughly this much.
const coarse = 2 * time.Millisecond

// Sleep pauses the calling goroutine for at least d, with microsecond-level
// precision. Delays longer than the coarse tick sleep for the bulk and spin
// (yielding the processor each iteration) for the remainder, so other
// goroutines keep running.
func Sleep(d time.Duration) {
	SleepWake(d, nil)
}

// SleepWake is Sleep cut short by wake: it returns true as soon as a value
// arrives on wake, false once d has elapsed. A nil wake never fires.
func SleepWake(d time.Duration, wake <-chan struct{}) bool {
	if d <= 0 {
		return false
	}
	start := time.Now()
	if d > coarse {
		if wake == nil {
			time.Sleep(d - coarse)
		} else {
			t := time.NewTimer(d - coarse)
			select {
			case <-t.C:
			case <-wake:
				t.Stop()
				return true
			}
		}
	}
	for time.Since(start) < d {
		select {
		case <-wake:
			return true
		default:
			runtime.Gosched()
		}
	}
	return false
}

// SleepUntil pauses until the deadline t (no-op when t has passed).
func SleepUntil(t time.Time) {
	Sleep(time.Until(t))
}
