package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// machine is the record of where a run measured: processor count, Go
// scheduler width, toolchain, kernel, and the filesystem under the
// scratch directory with its metadata cost.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	ScratchFS  string `json:"scratch_fs"`
	// publishMicros is the median cost of create+write+rename of a small
	// file in the scratch directory: the metadata work a worker does to
	// publish each task output into its cache.
	publishMicros float64
}

func (m machine) String() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s kernel=%s scratch_fs=%s publish=%.1fus",
		m.NProc, m.GOMAXPROCS, m.GoVersion, m.Kernel, m.ScratchFS, m.publishMicros)
}

func probeMachine(scratch string) machine {
	m := machine{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     kernelRelease(),
		ScratchFS:  fsType(scratch),
	}
	m.publishMicros = probePublish(scratch)
	return m
}

func kernelRelease() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	b := make([]byte, 0, len(u.Release))
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b = append(b, byte(c))
	}
	return string(b)
}

// fsType names the filesystem holding dir from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x6969:
		return "nfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

// probePublish times create+write+rename of a 64-byte file, the shape of
// a worker publishing one small task output, and returns the median in µs.
func probePublish(scratch string) float64 {
	dir := filepath.Join(scratch, "fsprobe")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0
	}
	defer os.RemoveAll(dir)
	payload := make([]byte, 64)
	var samples []float64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		f, err := os.CreateTemp(dir, "out-*.part")
		if err != nil {
			return 0
		}
		_, werr := f.Write(payload)
		cerr := f.Close()
		if werr != nil || cerr != nil {
			return 0
		}
		if err := os.Rename(f.Name(), filepath.Join(dir, fmt.Sprintf("out-%d", i))); err != nil {
			return 0
		}
		samples = append(samples, us(time.Since(t0)))
	}
	return median(samples)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// goSampler watches the Go runtime over a traced window: the share of CPU
// spent in garbage collection, and the peak live heap.
type goSampler struct {
	stop chan struct{}
	done chan struct{}

	mu        sync.Mutex
	peakHeap  uint64
	gc0, all0 float64
}

var goMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/memory/classes/heap/objects:bytes",
}

func readGoMetrics() (gc, all float64, heap uint64) {
	s := make([]metrics.Sample, len(goMetricNames))
	for i, n := range goMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		all = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindUint64 {
		heap = s[2].Value.Uint64()
	}
	return
}

// startGoSampler starts sampling until finish is called.
func startGoSampler() *goSampler {
	g := &goSampler{stop: make(chan struct{}), done: make(chan struct{})}
	g.gc0, g.all0, g.peakHeap = readGoMetrics()
	go func() {
		defer close(g.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-g.stop:
				return
			case <-tick.C:
				_, _, h := readGoMetrics()
				g.mu.Lock()
				if h > g.peakHeap {
					g.peakHeap = h
				}
				g.mu.Unlock()
			}
		}
	}()
	return g
}

// finish stops the sampler and reports the GC share of CPU time and the
// peak heap in MB over the sampled interval.
func (g *goSampler) finish() (gcFrac, heapPeakMB float64) {
	close(g.stop)
	<-g.done
	gc, all, h := readGoMetrics()
	g.mu.Lock()
	defer g.mu.Unlock()
	if h > g.peakHeap {
		g.peakHeap = h
	}
	return ratio(gc-g.gc0, all-g.all0), float64(g.peakHeap) / (1 << 20)
}
