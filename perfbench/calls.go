package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"hepvine/internal/sched"
	"hepvine/internal/vine"
)

// calls-flat: a closed loop of no-op serverless function calls with a
// fixed window in flight, on one flat manager with one 2-core worker. No
// data moves and no kernels run, so the manager's control plane and the
// worker's execute path do all the work.
//
// One call in callsOutputEvery, chosen by the seed, declares an output
// (the echo of its arguments) and is checked after the window; the others
// declare none. A declared output is published as one file in the
// worker's cache, and on a disk-backed checkout the cost of that file's
// create+rename swings by more than an order of magnitude from minute to
// minute with other load on the disk, which no window length averages
// out. Keeping the file on one call in 64 keeps the publish path in the
// loop while its noise stays within a few percent of a call's cost;
// fs.publish_us records the metadata cost on every traced run.

const (
	callsLib         = "perfbench-calls"
	callsInFlight    = 8 // window the single submitter keeps in flight
	callsWorkerCores = 2
	setupTrials      = 15  // bring-ups per run behind the setup_s median
	callsOutputEvery = 64  // one call in this many declares an output
	callsCheckSample = 256 // outputs fetched back and compared per window, at most
	waitTimeout      = 60 * time.Second
)

func init() {
	vine.MustRegisterLibrary(&vine.Library{
		Name:       callsLib,
		SetupDelay: libraryImportDelay,
		Funcs: map[string]vine.Function{
			"echo": func(c *vine.Call) error {
				c.SetOutput("out", c.Args)
				return nil
			},
		},
	})
}

func callsDir(e *env, i int) string { return filepath.Join(e.scratch, fmt.Sprintf("calls-%d", i)) }

func callsDirs(e *env, i int) []string { return []string{filepath.Join(callsDir(e, i), "w0")} }

// startCallsCluster brings up the manager and its worker and returns once
// the worker's library is instantiated.
func startCallsCluster(e *env, i int, traced bool) (*flatCluster, error) {
	c, err := startFlat(callsDir(e, i), 1, callsWorkerCores, e.tr.recorderIf(traced),
		vine.WithPeerTransfers(true), vine.WithLibrary(callsLib, true))
	if err != nil {
		return nil, err
	}
	if c.libSetup, err = warmLibrary(c.mgr, callsLib, "echo", 1); err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

// callsResult is one closed-loop window.
type callsResult struct {
	attempted, failed int64
	done              int64     // calls completed without error inside the window
	latency           []float64 // submit→done, ms, calls completed inside the window
	slices            *slicer
	checkErr          error

	// Traced windows only.
	queueWait, exec, complete []float64 // ms
	setupMS                   float64
	stats                     vine.ManagerStats
}

// callLoop runs the closed loop for dur after a short warm-up. Arguments
// are distinct per call and derived from tag (seed and phase), so nothing
// is served from a cache.
func callLoop(mgr *vine.Manager, tag string, dur time.Duration, seed uint64, tr *tracer) (*callsResult, error) {
	if _, err := callWindow(mgr, tag+"warm/", warmupFor(dur), seed, nil); err != nil {
		return nil, err
	}
	runtime.GC()
	return callWindow(mgr, tag, dur, seed, tr)
}

func callWindow(mgr *vine.Manager, tag string, dur time.Duration, seed uint64, tr *tracer) (*callsResult, error) {
	r := &callsResult{}
	type pending struct {
		t0  time.Time
		req uint64
	}
	var handles []*vine.TaskHandle // calls that declared an output
	var args [][]byte
	rng := rand.New(rand.NewSource(int64(seed)))
	calls := 0
	inflight := make(map[int]pending, callsInFlight)
	submit := func() {
		a := []byte(tag + strconv.Itoa(calls))
		calls++
		var outputs []string
		if rng.Intn(callsOutputEvery) == 0 {
			outputs = []string{"out"}
		}
		req := tr.newID()
		t0 := time.Now()
		h, err := mgr.SubmitFunc(vine.ModeFunctionCall, callsLib, "echo", a, outputs...)
		tr.add("vine.SubmitFunc", req, req, t0, time.Now())
		r.attempted++
		if err != nil {
			r.failed++
			return
		}
		inflight[h.ID] = pending{t0: t0, req: req}
		if outputs != nil {
			handles = append(handles, h)
			args = append(args, a)
		}
	}
	st0 := mgr.Stats()
	start := time.Now()
	deadline := start.Add(dur)
	r.slices = newSlicer(start, dur)
	for i := 0; i < callsInFlight; i++ {
		submit()
	}
	for len(inflight) > 0 {
		w0 := time.Now()
		h, err := mgr.WaitAny(waitTimeout)
		now := time.Now()
		if err != nil {
			return nil, err
		}
		p, ok := inflight[h.ID]
		if !ok {
			continue
		}
		delete(inflight, h.ID)
		tr.add("vine.WaitAny", p.req, p.req, w0, now)
		tr.root("call", p.req, p.t0, now)
		inWindow := now.Before(deadline)
		if h.Err() != nil {
			r.failed++
			r.slices.observe(now, 0)
		} else {
			r.slices.observe(now, 1)
		}
		if h.Err() == nil && inWindow {
			r.done++
			r.latency = append(r.latency, ms(now.Sub(p.t0)))
			if tr != nil {
				disp := h.FirstDispatch()
				exec := h.ExecTime()
				r.queueWait = append(r.queueWait, ms(disp.Sub(p.t0)))
				r.exec = append(r.exec, ms(exec))
				r.complete = append(r.complete, ms(now.Sub(disp)-exec))
				r.setupMS += ms(h.SetupTime())
			}
		}
		if inWindow {
			submit()
		}
	}
	r.slices.close(time.Now())
	r.stats = statsDelta(mgr.Stats(), st0)
	r.checkErr = checkCallSample(mgr, handles, args, seed)
	return r, nil
}

// checkCallSample fetches the declared outputs back, or a seeded sample
// of them, and compares each with the arguments of its call.
func checkCallSample(mgr *vine.Manager, handles []*vine.TaskHandle, args [][]byte, seed uint64) error {
	if len(handles) == 0 {
		return fmt.Errorf("calls: no call declared an output")
	}
	idx := rand.New(rand.NewSource(int64(seed))).Perm(len(handles))
	if len(idx) > callsCheckSample {
		idx = idx[:callsCheckSample]
	}
	for _, i := range idx {
		cn, ok := handles[i].Output("out")
		if !ok {
			return fmt.Errorf("calls: call %d has no output", i)
		}
		got, err := mgr.FetchBytes(cn)
		if err != nil {
			return fmt.Errorf("calls: fetching output of call %d: %w", i, err)
		}
		if err := checkEcho(args[i], got); err != nil {
			return fmt.Errorf("calls: call %d: %w", i, err)
		}
	}
	return nil
}

// statsDelta subtracts the counters setVineCounters reports.
func statsDelta(a, b vine.ManagerStats) vine.ManagerStats {
	return vine.ManagerStats{
		Retries:          a.Retries - b.Retries,
		PeerTransfers:    a.PeerTransfers - b.PeerTransfers,
		ManagerTransfers: a.ManagerTransfers - b.ManagerTransfers,
		PeerBytes:        a.PeerBytes - b.PeerBytes,
		ManagerBytes:     a.ManagerBytes - b.ManagerBytes,
	}
}

func runCallsFlat(e *env) (*outcome, error) {
	out := newOutcome()
	if !e.traced {
		setup, cl, err := setupRepeated(setupTrials, func(i int) []string { return callsDirs(e, i) },
			func(i int) (*flatCluster, error) { return startCallsCluster(e, i, false) })
		if err != nil {
			return nil, err
		}
		defer cl.stop()
		r, err := callLoop(cl.mgr, fmt.Sprintf("%d/", e.seed), e.window, e.seed, nil)
		if err != nil {
			return nil, err
		}
		out.attempted, out.failed, out.checkErr = r.attempted, r.failed, r.checkErr
		out.metrics["setup_s"] = setup
		fmt.Fprintf(e.log, "perfbench: calls-flat %v\n", r.slices)
		out.metrics["tasks_per_s"] = r.slices.rate()
		out.setPct("latency_p50_ms", r.latency, 0.5)
		out.metrics["cpu_ms_per_task"] = r.slices.cpuPerTask()
		return out, nil
	}

	// Traced run: an untraced half gives the reference for the tracing
	// overhead, then a traced half on a fresh cluster gives the layers.
	half := e.window / 2
	if err := mkdirs(append(callsDirs(e, 0), callsDirs(e, 1)...)...); err != nil {
		return nil, err
	}
	base, err := startCallsCluster(e, 0, false)
	if err != nil {
		return nil, err
	}
	r0, err := callLoop(base.mgr, fmt.Sprintf("%d/base/", e.seed), half, e.seed, nil)
	base.stop()
	if err != nil {
		return nil, err
	}
	cl, err := startCallsCluster(e, 1, true)
	if err != nil {
		return nil, err
	}
	defer cl.stop()
	gs := startGoSampler()
	r, err := callLoop(cl.mgr, fmt.Sprintf("%d/traced/", e.seed), half, e.seed, e.tr)
	gcFrac, heapMB := gs.finish()
	if err != nil {
		return nil, err
	}
	out.attempted = r0.attempted + r.attempted
	out.failed = r0.failed + r.failed
	out.checkErr = firstErr(r0.checkErr, r.checkErr)
	out.setPct("latency_p99_ms", r.latency, 0.99)
	out.setPct("vine.submit_p50_us", toUS(e.tr.durations("vine.SubmitFunc")), 0.5)
	out.setPct("vine.queue_wait_p50_ms", r.queueWait, 0.5)
	out.setPct("vine.queue_wait_p99_ms", r.queueWait, 0.99)
	out.setPct("vine.exec_p50_ms", r.exec, 0.5)
	out.setPct("vine.complete_p50_ms", r.complete, 0.5)
	out.setPct("vine.complete_p99_ms", r.complete, 0.99)
	out.metrics["vine.library_setup_ms"] = ms(cl.libSetup) + r.setupMS
	setVineCounters(out, r.stats)
	ns, allocs := probeSched(e.tr, schedShape{workers: 1, cores: callsWorkerCores, tasks: callsInFlight})
	out.metrics["sched.assign_ns"], out.metrics["sched.assign_allocs"] = ns, allocs
	out.metrics["go.gc_cpu_frac"], out.metrics["go.heap_peak_mb"] = gcFrac, heapMB
	out.metrics["peak_rss_mb"] = peakRSSMB()
	out.metrics["trace.overhead_frac"] = ratio(r0.slices.rate(), r.slices.rate()) - 1
	if err := probeGateLayers(e, out); err != nil {
		return nil, fmt.Errorf("gate probe: %w", err)
	}
	e.tr.count("calls.done", r.done)
	out.metrics["failed_frac"] = ratio(float64(out.failed), float64(out.attempted))
	return out, nil
}

// setVineCounters copies the manager counters every workload reports.
func setVineCounters(out *outcome, st vine.ManagerStats) {
	out.metrics["vine.peer_bytes"] = float64(st.PeerBytes)
	out.metrics["vine.manager_bytes"] = float64(st.ManagerBytes)
	out.metrics["vine.transfers"] = float64(st.PeerTransfers + st.ManagerTransfers)
	out.metrics["vine.retries"] = float64(st.Retries)
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// schedShape is a ready queue shaped like one workload's: a worker pool
// and a batch of tasks, optionally with inputs cached on some workers.
type schedShape struct {
	workers, cores, tasks int
	inputs                func(i int) []string // task i's input cachenames
	cached                map[int][]string     // worker → cachenames it holds
	policy                *sched.Policy
}

// probeSched times Scheduler.Enqueue+Assign per task on a queue of the
// given shape, with placements released as they are made so every round
// places the whole batch, and reports ns and heap allocations per task.
func probeSched(tr *tracer, sh schedShape) (nsPerTask, allocsPerTask float64) {
	t0 := time.Now()
	s := sched.New(sh.policy)
	for w := 0; w < sh.workers; w++ {
		s.WorkerJoin(w, sh.cores, 0)
	}
	for w, names := range sh.cached {
		for _, n := range names {
			s.FileCached(w, n, 1<<20)
		}
	}
	tasks := make([]*sched.Task, sh.tasks)
	for i := range tasks {
		tasks[i] = &sched.Task{ID: strconv.Itoa(i), Cores: 1}
		if sh.inputs != nil {
			tasks[i].Inputs = sh.inputs(i)
		}
	}
	round := func(now int64) {
		for _, t := range tasks {
			s.Enqueue(t, now)
		}
		s.Assign(now, func(a sched.Assignment) { s.Release(a.Worker, a.Task.Cores, a.Task.Memory) })
	}
	for i := 0; i < 200; i++ {
		round(int64(i))
	}
	const rounds = 5000
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < rounds; i++ {
		round(int64(i))
	}
	el := time.Since(start)
	runtime.ReadMemStats(&m1)
	ops := float64(rounds * len(tasks))
	tr.add("sched.probe", 0, 0, t0, time.Now())
	return float64(el.Nanoseconds()) / ops, float64(m1.Mallocs-m0.Mallocs) / ops
}
