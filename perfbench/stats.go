package main

import (
	"math"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
// An empty sample yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	k := int(math.Ceil(q*float64(len(xs)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(xs) {
		k = len(xs) - 1
	}
	return xs[k]
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// heapSampler records HeapInuse (heap object bytes plus heap
// fragmentation, the runtime/metrics spelling of MemStats.HeapInuse)
// every few milliseconds, without the stop-the-world cost of
// ReadMemStats.
type heapSampler struct {
	stop    chan struct{}
	done    chan struct{}
	start   time.Time
	mu      sync.Mutex
	samples []heapPoint
}

type heapPoint struct {
	at    time.Duration // since start
	bytes uint64
}

var heapMetricNames = []string{"/memory/classes/heap/objects:bytes", "/memory/classes/heap/unused:bytes"}

func heapInuse(s []metrics.Sample) uint64 {
	metrics.Read(s)
	var v uint64
	for _, x := range s {
		if x.Value.Kind() == metrics.KindUint64 {
			v += x.Value.Uint64()
		}
	}
	return v
}

func startHeapSampler(interval time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{}), start: time.Now()}
	go func() {
		defer close(h.done)
		s := make([]metrics.Sample, len(heapMetricNames))
		for i, n := range heapMetricNames {
			s[i].Name = n
		}
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			v := heapInuse(s)
			h.mu.Lock()
			h.samples = append(h.samples, heapPoint{time.Since(h.start), v})
			h.mu.Unlock()
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) now() time.Duration { return time.Since(h.start) }

// peak is the largest sample in [from, to).
func (h *heapSampler) peak(from, to time.Duration) uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	var p uint64
	for _, x := range h.samples {
		if x.at >= from && x.at < to && x.bytes > p {
			p = x.bytes
		}
	}
	return p
}

// Stop ends sampling.
func (h *heapSampler) Stop() {
	close(h.stop)
	<-h.done
}

// allocCount reads the process-wide cumulative heap allocation count.
func allocCount() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// settle collects garbage between phases and hands freed pages back to
// the OS, so one phase's allocations (a set-up's build above all) are
// not paid for inside the next one's timing window — neither as a
// collection nor as the background scavenger returning memory later.
func settle() {
	debug.FreeOSMemory()
	time.Sleep(20 * time.Millisecond)
}
