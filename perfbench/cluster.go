package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"hepvine/internal/obs"
	"hepvine/internal/vine"
)

// joinTimeout bounds how long bring-up waits for workers to register.
const joinTimeout = 30 * time.Second

// flatCluster is one manager with in-process workers, all over loopback
// TCP.
type flatCluster struct {
	mgr      *vine.Manager
	ws       []*vine.Worker
	libSetup time.Duration // library setup reported by the warm-up calls
}

// startFlat brings up a manager and nWorkers workers of the given core
// count, each with its cache under dir, and waits until every worker has
// joined. rec, when non-nil, receives the program's own event trace.
func startFlat(dir string, nWorkers, cores int, rec *obs.Recorder, mopts ...vine.Option) (*flatCluster, error) {
	mgr, err := vine.NewManager(append([]vine.Option{vine.WithRecorder(rec)}, mopts...)...)
	if err != nil {
		return nil, fmt.Errorf("manager: %w", err)
	}
	c := &flatCluster{mgr: mgr}
	for i := 0; i < nWorkers; i++ {
		w, err := vine.NewWorker(mgr.Addr(),
			vine.WithName(fmt.Sprintf("w%d", i)),
			vine.WithCores(cores),
			vine.WithCacheDir(filepath.Join(dir, fmt.Sprintf("w%d", i))),
			vine.WithRecorder(rec),
		)
		if err != nil {
			c.stop()
			return nil, fmt.Errorf("worker %d: %w", i, err)
		}
		c.ws = append(c.ws, w)
	}
	if err := mgr.WaitForWorkers(nWorkers, joinTimeout); err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

func (c *flatCluster) stop() {
	for _, w := range c.ws {
		w.Stop()
	}
	c.mgr.Stop()
}

// setupRepeated brings a workload's cluster up n times, tearing down all
// but the last, and returns the median bring-up time in seconds with the
// cluster left running. Bring-up time is the workload's setup_s: from the
// first call into the program until the cluster accepts work (see
// warmLibrary). The
// scratch directories are made before the clock starts (see mkdirs).
func setupRepeated[C interface{ stop() }](n int, dirs func(i int) []string, start func(i int) (C, error)) (float64, C, error) {
	var times []float64
	var c C
	for i := 0; i < n; i++ {
		if err := mkdirs(dirs(i)...); err != nil {
			return 0, c, err
		}
		settle()
		t0 := time.Now()
		next, err := start(i)
		if err != nil {
			return 0, c, err
		}
		times = append(times, secs(time.Since(t0)))
		if i < n-1 {
			next.stop()
		}
		c = next
	}
	return median(times), c, nil
}

// mkdirs makes the scratch directories a cluster will use. The benchmark
// makes them itself, outside the timed bring-up: creating a directory is
// the benchmark's preparation, not the program's set-up, and its cost on
// a disk-backed checkout varies with other load on the disk.
func mkdirs(dirs ...string) error {
	for _, d := range dirs {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return err
		}
	}
	return nil
}

// settle collects the garbage of a cluster just torn down before the
// next timed bring-up, so one trial's teardown is not charged to the next
// one's set-up.
func settle() { runtime.GC() }

// libraryImportDelay models a serverless library's environment
// construction (the Python imports of the paper). Every library here is
// hoisted, so each worker pays it once, on its first call.
const libraryImportDelay = 10 * time.Millisecond

// warmLibrary submits n no-output calls of lib/fn at once, one per worker
// core slot of the cluster, waits for all of them, and returns the
// library setup time they report. A function-call cluster accepts work
// once every worker has instantiated its hoisted library, so bring-up
// ends here.
func warmLibrary(mgr *vine.Manager, lib, fn string, n int) (time.Duration, error) {
	hs := make([]*vine.TaskHandle, n)
	for i := range hs {
		h, err := mgr.SubmitFunc(vine.ModeFunctionCall, lib, fn, []byte(fmt.Sprintf("warm-%d", i)))
		if err != nil {
			return 0, fmt.Errorf("warm-up call: %w", err)
		}
		hs[i] = h
	}
	var setup time.Duration
	for _, h := range hs {
		if err := h.Wait(joinTimeout); err != nil {
			return 0, fmt.Errorf("warm-up call: %w", err)
		}
		setup += h.SetupTime()
	}
	return setup, nil
}
