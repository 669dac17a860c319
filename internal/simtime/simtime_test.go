package simtime

import (
	"sync"
	"testing"
	"time"
)

func TestSleepZeroAndNegative(t *testing.T) {
	start := time.Now()
	Sleep(0)
	Sleep(-time.Second)
	if time.Since(start) > 5*time.Millisecond {
		t.Error("non-positive Sleep slept")
	}
}

func TestSleepShortIsPrecise(t *testing.T) {
	// Sub-tick sleeps must not round up to the kernel tick (~1 ms).
	for _, d := range []time.Duration{50 * time.Microsecond, 200 * time.Microsecond} {
		var tot time.Duration
		const n = 20
		for i := 0; i < n; i++ {
			start := time.Now()
			Sleep(d)
			tot += time.Since(start)
		}
		mean := tot / n
		if mean < d {
			t.Errorf("Sleep(%v) mean %v came back early", d, mean)
		}
		if mean > d+300*time.Microsecond {
			t.Errorf("Sleep(%v) mean %v too imprecise", d, mean)
		}
	}
}

func TestSleepLong(t *testing.T) {
	start := time.Now()
	Sleep(10 * time.Millisecond)
	el := time.Since(start)
	if el < 10*time.Millisecond || el > 14*time.Millisecond {
		t.Errorf("Sleep(10ms) took %v", el)
	}
}

func TestConcurrentSleepsOverlap(t *testing.T) {
	// N concurrent sleeps of d must take ~d wall time, not N*d — the
	// property the whole latency simulation depends on.
	const n = 16
	const d = 5 * time.Millisecond
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			Sleep(d)
		}()
	}
	wg.Wait()
	el := time.Since(start)
	if el > 3*d {
		t.Errorf("%d concurrent sleeps of %v took %v: not overlapping", n, d, el)
	}
}

func TestSleepUntil(t *testing.T) {
	target := time.Now().Add(3 * time.Millisecond)
	SleepUntil(target)
	if time.Now().Before(target) {
		t.Error("SleepUntil returned early")
	}
	SleepUntil(time.Now().Add(-time.Second)) // past deadline: no-op
}

func TestSleepWake(t *testing.T) {
	wake := make(chan struct{}, 1)
	start := time.Now()
	if SleepWake(200*time.Microsecond, wake) {
		t.Error("SleepWake reported a wake that never came")
	}
	if time.Since(start) < 200*time.Microsecond {
		t.Error("SleepWake returned early")
	}
	// A pending wake cuts both the coarse sleep and the spin tail short.
	for _, d := range []time.Duration{time.Second, time.Millisecond} {
		wake <- struct{}{}
		start = time.Now()
		if !SleepWake(d, wake) || len(wake) != 0 {
			t.Errorf("SleepWake(%v) did not take the pending wake", d)
		}
		if el := time.Since(start); d == time.Second && el > d/2 {
			t.Errorf("SleepWake(%v) woke after %v", d, el)
		}
	}
}
