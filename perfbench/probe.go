package main

import (
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// procSnap is the process-wide state at one instant: wall time, getrusage
// CPU, and the runtime/metrics counters the benchmark takes deltas of.
type procSnap struct {
	wall    time.Time
	cpu     time.Duration // user + system
	allocs  uint64        // heap objects allocated since start
	gcCPU   float64       // seconds of GC CPU
	busyCPU float64       // seconds of non-idle CPU
	sched   *metrics.Float64Histogram
}

var procSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
	{Name: "/sched/latencies:seconds"},
}

func takeProc() procSnap {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	s := make([]metrics.Sample, len(procSamples))
	copy(s, procSamples)
	metrics.Read(s)
	return procSnap{
		wall:    time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs:  s[0].Value.Uint64(),
		gcCPU:   s[1].Value.Float64(),
		busyCPU: s[2].Value.Float64() - s[3].Value.Float64(),
		sched:   s[4].Value.Float64Histogram(),
	}
}

// procDelta is the process's work between two snapshots.
type procDelta struct {
	wall   time.Duration
	cpu    time.Duration
	allocs uint64
	gcFrac float64 // GC share of busy CPU
	// schedP99 is the 99th percentile goroutine scheduling latency.
	schedP99 time.Duration
}

func (a procSnap) to(b procSnap) procDelta {
	d := procDelta{
		wall:   b.wall.Sub(a.wall),
		cpu:    b.cpu - a.cpu,
		allocs: b.allocs - a.allocs,
		gcFrac: ratio(b.gcCPU-a.gcCPU, b.busyCPU-a.busyCPU),
	}
	if a.sched != nil && b.sched != nil && len(a.sched.Counts) == len(b.sched.Counts) {
		counts := make([]int64, len(b.sched.Counts))
		for i := range counts {
			counts[i] = int64(b.sched.Counts[i] - a.sched.Counts[i])
		}
		// Buckets has one more entry than Counts: bucket i spans
		// [Buckets[i], Buckets[i+1]).
		bounds := b.sched.Buckets[1:]
		d.schedP99 = time.Duration(bucketQuantile(bounds, counts, 0.99) * float64(time.Second))
	}
	return d
}

// sampler polls the process (live heap, goroutines) and any registered
// probes every interval until stopped, keeping maxima.
type sampler struct {
	probes []func()
	stop   chan struct{}
	wg     sync.WaitGroup

	mu            sync.Mutex
	peakHeap      uint64
	maxGoroutines uint64
}

var samplerMetrics = []metrics.Sample{
	{Name: "/gc/heap/live:bytes"},
	{Name: "/sched/goroutines:goroutines"},
}

// startSampler starts polling at once; stop ends it and waits.
func startSampler(every time.Duration, probes ...func()) *sampler {
	s := &sampler{probes: probes, stop: make(chan struct{})}
	s.poll()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.poll()
			}
		}
	}()
	return s
}

func (s *sampler) poll() {
	m := make([]metrics.Sample, len(samplerMetrics))
	copy(m, samplerMetrics)
	metrics.Read(m)
	s.mu.Lock()
	if v := m[0].Value.Uint64(); v > s.peakHeap {
		s.peakHeap = v
	}
	if v := m[1].Value.Uint64(); v > s.maxGoroutines {
		s.maxGoroutines = v
	}
	s.mu.Unlock()
	for _, p := range s.probes {
		p()
	}
}

// finish takes one last sample, stops the poller, and returns the peak
// live heap in MiB and the most goroutines seen.
func (s *sampler) finish() (heapMiB float64, goroutines uint64) {
	close(s.stop)
	s.wg.Wait()
	s.poll()
	s.mu.Lock()
	defer s.mu.Unlock()
	return float64(s.peakHeap) / (1 << 20), s.maxGoroutines
}

// maxTracker keeps the maximum, minimum and mean of values reported from
// several goroutines.
type maxTracker struct {
	mu  sync.Mutex
	max float64
	min float64
	set bool
	sum float64
	n   int
}

func (m *maxTracker) observe(v float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.set || v > m.max {
		m.max = v
	}
	if !m.set || v < m.min {
		m.min = v
	}
	m.set = true
	m.sum += v
	m.n++
}

func (m *maxTracker) stats() (max, min, mean float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.set {
		return 0, 0, 0
	}
	return m.max, m.min, m.sum / float64(m.n)
}

// msPer returns d in milliseconds divided by n, or 0 without work.
func msPer(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / float64(time.Millisecond) / float64(n)
}
