package main

import (
	"sort"
	"strconv"
	"sync"
	"time"
)

// windowSlices is how many equal slices a timed window is cut into.
// Throughput and CPU per task are reported as the interquartile mean over
// slices (the mean of the middle half), so a burst of load from outside
// the benchmark that covers a few seconds of the window moves them less
// than a whole-window average would, while, unlike a plain median, the
// figure does not snap to the whole number of tasks in one slice.
const windowSlices = 20

// warmupFor is the untimed warm-up before a closed-loop window of length
// dur: long enough for the hoisted library to be built and the loop to
// reach its steady state.
func warmupFor(dur time.Duration) time.Duration {
	w := dur / 10
	if w < 200*time.Millisecond {
		w = 200 * time.Millisecond
	}
	if w > time.Second {
		w = time.Second
	}
	return w
}

// slicer counts completions and samples process CPU time per slice of a
// timed window. Safe for concurrent use.
type slicer struct {
	start time.Time
	width time.Duration

	mu    sync.Mutex
	done  []float64       // tasks completed per slice
	cpuAt []time.Duration // process CPU time at each slice boundary seen so far
}

func newSlicer(start time.Time, dur time.Duration) *slicer {
	return &slicer{
		start: start,
		width: dur / windowSlices,
		done:  make([]float64, windowSlices),
		cpuAt: []time.Duration{cpuTime()},
	}
}

// observe records that tasks completed at now. Completions after the
// window are not counted; the first one seen past each slice boundary
// samples the CPU time for that boundary.
func (s *slicer) observe(now time.Time, tasks float64) {
	i := int(now.Sub(s.start) / s.width)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.crossLocked(i)
	if i < windowSlices {
		s.done[i] += tasks
	}
}

// close samples the boundaries the window passed without a completion.
func (s *slicer) close(now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.crossLocked(int(now.Sub(s.start) / s.width))
}

func (s *slicer) crossLocked(i int) {
	if i > windowSlices {
		i = windowSlices
	}
	if len(s.cpuAt) <= i {
		c := cpuTime()
		for len(s.cpuAt) <= i {
			s.cpuAt = append(s.cpuAt, c)
		}
	}
}

// rate is the interquartile mean over slices of tasks completed per
// second.
func (s *slicer) rate() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := make([]float64, len(s.done))
	for i, d := range s.done {
		r[i] = d / secs(s.width)
	}
	return iqm(r)
}

// cpuPerTask is the interquartile mean over slices of process CPU ms per
// task done.
func (s *slicer) cpuPerTask() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var per []float64
	for i := 0; i < windowSlices && i+1 < len(s.cpuAt); i++ {
		if s.done[i] > 0 {
			per = append(per, ms(s.cpuAt[i+1]-s.cpuAt[i])/s.done[i])
		}
	}
	return iqm(per)
}

// iqm is the interquartile mean of xs: the mean of the values between the
// first and third quartiles. 0 for no samples.
func iqm(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	lo, hi := len(s)/4, len(s)-len(s)/4
	var sum float64
	for _, x := range s[lo:hi] {
		sum += x
	}
	return sum / float64(hi-lo)
}

// String lists the slices' rates, for the run's log.
func (s *slicer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := []byte("slice rates/s:")
	for _, d := range s.done {
		b = append(b, ' ')
		b = strconv.AppendFloat(b, d/secs(s.width), 'f', 0, 64)
	}
	return string(b)
}
