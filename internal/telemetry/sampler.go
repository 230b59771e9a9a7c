package telemetry

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"
)

// MemSample is one point of the sampler's memory time series.
type MemSample struct {
	ElapsedMS   float64 `json:"elapsed_ms"`
	HeapAlloc   uint64  `json:"heap_alloc"`   // live heap bytes (MemStats.HeapAlloc)
	HeapSys     uint64  `json:"heap_sys"`     // heap bytes obtained from the OS
	TotalAlloc  uint64  `json:"total_alloc"`  // cumulative allocated bytes
	TotalMemory uint64  `json:"total_memory"` // /memory/classes/total:bytes (all runtime-managed memory)
	NumGC       uint32  `json:"num_gc"`
	Goroutines  int     `json:"goroutines"`
	RSS         uint64  `json:"rss,omitempty"` // VmRSS from /proc (0 where unsupported)
	Pebbles     int64   `json:"pebbles,omitempty"`
}

// Sampler periodically captures runtime/metrics + MemStats (and, when a
// registry is attached, the engine's pebble progress) into a bounded time
// series. It exists so a run manifest can report how memory evolved over the
// run — bytes/pebble needs more than a final snapshot once runs stream
// working sets.
type Sampler struct {
	reg *Registry

	interval time.Duration
	start    time.Time
	stop     chan struct{}
	done     chan struct{}

	mu      sync.Mutex
	samples []MemSample
}

// samplerMaxSamples bounds the series; when full, every other sample is
// dropped and the interval doubles, keeping long runs at bounded cost.
const samplerMaxSamples = 512

// StartSampler begins sampling every interval (0 means 50ms). reg may be
// nil; when non-nil, each sample also records the pebbles its shards have
// computed.
func StartSampler(reg *Registry, interval time.Duration) *Sampler {
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	s := &Sampler{
		reg:      reg,
		interval: interval,
		start:    time.Now(),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go s.loop()
	return s
}

func (s *Sampler) loop() {
	defer close(s.done)
	ticker := time.NewTicker(s.interval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
			s.capture()
			s.mu.Lock()
			if len(s.samples) >= samplerMaxSamples {
				kept := s.samples[:0]
				for i, sm := range s.samples {
					if i%2 == 0 {
						kept = append(kept, sm)
					}
				}
				s.samples = kept
				s.interval *= 2
				ticker.Reset(s.interval)
			}
			s.mu.Unlock()
		}
	}
}

var totalMemSample = []metrics.Sample{{Name: "/memory/classes/total:bytes"}}

func (s *Sampler) capture() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	tm := make([]metrics.Sample, len(totalMemSample))
	copy(tm, totalMemSample)
	metrics.Read(tm)
	sm := MemSample{
		ElapsedMS:  float64(time.Since(s.start).Microseconds()) / 1000,
		HeapAlloc:  ms.HeapAlloc,
		HeapSys:    ms.HeapSys,
		TotalAlloc: ms.TotalAlloc,
		NumGC:      ms.NumGC,
		Goroutines: runtime.NumGoroutine(),
		RSS:        readRSS(),
		Pebbles:    s.reg.Snapshot().Counters.PebblesComputed,
	}
	if tm[0].Value.Kind() == metrics.KindUint64 {
		sm.TotalMemory = tm[0].Value.Uint64()
	}
	s.mu.Lock()
	s.samples = append(s.samples, sm)
	s.mu.Unlock()
}

// Stop halts the sampler, takes one final sample, and returns the series.
func (s *Sampler) Stop() []MemSample {
	close(s.stop)
	<-s.done
	s.capture()
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]MemSample(nil), s.samples...)
}

// readProcStatusKB extracts a kB-denominated field from /proc/self/status.
// Returns 0 on any failure (non-Linux, sandboxed /proc, format drift) — the
// manifest treats 0 as "unknown".
func readProcStatusKB(field string) uint64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, field) {
			continue
		}
		fs := strings.Fields(line)
		if len(fs) < 2 {
			return 0
		}
		kb, err := strconv.ParseUint(fs[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb * 1024
	}
	return 0
}

// readRSS reports the current resident set size in bytes (0 if unknown).
func readRSS() uint64 { return readProcStatusKB("VmRSS:") }

// ReadPeakRSS reports the process's peak resident set size in bytes (VmHWM;
// 0 if unknown). Peak RSS is the honest memory cost for bytes/pebble: it
// includes the Go runtime's retained spans, not just live heap.
func ReadPeakRSS() uint64 { return readProcStatusKB("VmHWM:") }

// ResetPeakRSS zeroes the kernel's VmHWM watermark (/proc/self/clear_refs
// "5"), so a subsequent ReadPeakRSS reflects only memory touched after the
// reset — which is what lets one test process measure several benchmarks'
// peaks independently. Best-effort: silently a no-op where clear_refs is
// unavailable (non-Linux, restricted /proc), in which case ReadPeakRSS
// keeps reporting the process-lifetime peak.
func ResetPeakRSS() {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return
	}
	_, _ = f.Write([]byte("5"))
	_ = f.Close()
}
