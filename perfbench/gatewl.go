package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"hepvine/internal/gate"
	"hepvine/internal/journal"
	"hepvine/internal/vine"
)

// gate-sessions: two tenants, each with one keep-alive HTTP connection,
// run a closed loop against the gate in front of a journaled manager.
// Each iteration POSTs a 17-task fan-in DAG (16 leaves, 1 merge) in
// function-call mode, long-polls the session's events until the merge
// finishes, then fetches the merge output and checks it. Every 4th DAG
// repeats one the other tenant already finished, which the gate answers
// from its cross-tenant dedupe as a warm hit. The admission envelope is
// set far above the offered load, so a 429 is a failure and never paces
// the loop: with the default 500 tasks/s per tenant the loop would
// measure the token bucket instead of the gate.

const (
	gateLib         = "perfbench-gate"
	gateLeaves      = 16
	gateTenants     = 2
	gateRepeatEvery = 4
	gateWorkerCores = 2
	gatePollWait    = 5 * time.Second
	gateSession     = "bench"
	gateQueueSample = 256 // tasks whose status is read back after a traced window
)

func init() {
	vine.MustRegisterLibrary(&vine.Library{
		Name: gateLib,
		Funcs: map[string]vine.Function{
			"leaf": func(c *vine.Call) error {
				c.SetOutput("v", encodeU64(leafValue(c.Args)))
				return nil
			},
			"merge": func(c *vine.Call) error {
				var sum uint64
				for _, name := range c.InputNames() {
					b, err := c.Input(name)
					if err != nil {
						return err
					}
					if len(b) != 8 {
						return fmt.Errorf("input %s: %d bytes, want 8", name, len(b))
					}
					sum += binary.BigEndian.Uint64(b)
				}
				c.SetOutput("v", encodeU64(sum))
				return nil
			},
		},
	})
}

// gateCluster is a journaled manager with one worker behind a gate
// served over loopback HTTP, with one client per tenant.
type gateCluster struct {
	jr      *journal.Journal
	fc      *flatCluster
	srv     *httptest.Server
	clients []*gate.Client
}

func (c *gateCluster) stop() {
	if c.srv != nil {
		c.srv.Close()
	}
	if c.fc != nil {
		c.fc.stop()
	}
	c.jr.Close()
}

func gateDir(e *env, i int) string { return filepath.Join(e.scratch, fmt.Sprintf("gate-%d", i)) }

func gateDirs(e *env, i int) []string {
	return []string{filepath.Join(gateDir(e, i), "w0"), filepath.Join(gateDir(e, i), "journal")}
}

// startGateCluster brings up the service and opens each tenant's session.
func startGateCluster(e *env, i int, traced bool) (*gateCluster, error) {
	dir := gateDir(e, i)
	jr, err := journal.Open(filepath.Join(dir, "journal"), journal.Options{})
	if err != nil {
		return nil, err
	}
	c := &gateCluster{jr: jr}
	c.fc, err = startFlat(dir, 1, gateWorkerCores, e.tr.recorderIf(traced),
		vine.WithPeerTransfers(true), vine.WithLibrary(gateLib, true), vine.WithJournal(jr))
	if err != nil {
		c.stop()
		return nil, err
	}
	g := gate.New(c.fc.mgr, gate.Config{Default: gate.TenantConfig{
		MaxInFlight: 1 << 20, SubmitRate: 1e9, SubmitBurst: 1 << 30,
	}})
	c.srv = httptest.NewServer(g.Handler())
	for t := 0; t < gateTenants; t++ {
		cl := &gate.Client{
			Base:   c.srv.URL,
			Tenant: fmt.Sprintf("tenant%d", t),
			HTTP: &http.Client{Transport: &http.Transport{
				MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
			}},
		}
		if _, err := cl.OpenSession(gateSession); err != nil {
			c.stop()
			return nil, err
		}
		c.clients = append(c.clients, cl)
	}
	return c, nil
}

// dagKey identifies one DAG's inputs: the leaves' arguments derive from
// it, so a repeat of another tenant's DAG reuses that tenant's key.
type dagKey struct {
	tag         string
	tenant, idx int
}

func (k dagKey) leafArgs() [][]byte {
	args := make([][]byte, gateLeaves)
	for l := range args {
		args[l] = []byte(fmt.Sprintf("%s/t%d/d%d/l%d", k.tag, k.tenant, k.idx, l))
	}
	return args
}

// dagRequest is the 17-task fan-in DAG over the given leaf arguments.
func dagRequest(args [][]byte) gate.SubmitRequest {
	req := gate.SubmitRequest{Tasks: make([]gate.TaskSpec, 0, len(args)+1)}
	merge := gate.TaskSpec{Label: "merge", Mode: string(vine.ModeFunctionCall),
		Library: gateLib, Func: "merge", Outputs: []string{"v"}}
	for l, a := range args {
		label := "l" + strconv.Itoa(l)
		req.Tasks = append(req.Tasks, gate.TaskSpec{Label: label, Mode: string(vine.ModeFunctionCall),
			Library: gateLib, Func: "leaf", Args: a, Outputs: []string{"v"}})
		merge.Inputs = append(merge.Inputs, gate.InputRef{Name: fmt.Sprintf("in%02d", l), Task: label, Output: "v"})
	}
	req.Tasks = append(req.Tasks, merge)
	return req
}

// finished holds each tenant's finished fresh DAGs, for the other
// tenant's repeats.
type finished struct {
	mu   sync.Mutex
	keys [gateTenants][]dagKey
}

// gateResult is one window of both tenants' loops.
type gateResult struct {
	attempted, failed, rejections int64
	dags, freshDAGs               int64 // finished inside the window
	repeats, warmRepeats          int64
	polls                         int64
	latency                       []float64 // POST → merge done seen, ms
	slices                        *slicer
	checkErr                      error
	taskIDs                       [gateTenants][]string // fresh tasks, traced windows only
	journal                       journal.Stats
	stats                         vine.ManagerStats
}

func (r *gateResult) add(o *gateResult) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.rejections += o.rejections
	r.dags += o.dags
	r.freshDAGs += o.freshDAGs
	r.repeats += o.repeats
	r.warmRepeats += o.warmRepeats
	r.polls += o.polls
	r.latency = append(r.latency, o.latency...)
	r.checkErr = firstErr(r.checkErr, o.checkErr)
}

// gateLoop runs a short warm-up and then the window.
func gateLoop(c *gateCluster, tag string, dur time.Duration, seed uint64, fin *finished, tr *tracer) (*gateResult, error) {
	w, err := gateWindow(c, tag+"warm", warmupFor(dur), seed, fin, nil)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	r, err := gateWindow(c, tag, dur, seed, fin, tr)
	if err != nil {
		return nil, err
	}
	r.attempted += w.attempted
	r.failed += w.failed
	r.checkErr = firstErr(w.checkErr, r.checkErr)
	return r, nil
}

func gateWindow(c *gateCluster, tag string, dur time.Duration, seed uint64, fin *finished, tr *tracer) (*gateResult, error) {
	j0, st0 := c.jr.Stats(), c.fc.mgr.Stats()
	start := time.Now()
	deadline := start.Add(dur)
	sl := newSlicer(start, dur)
	results := make([]*gateResult, gateTenants)
	errs := make([]error, gateTenants)
	var wg sync.WaitGroup
	for t := 0; t < gateTenants; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			results[t], errs[t] = tenantLoop(c.clients[t], t, tag, deadline, seed, fin, sl, tr)
		}(t)
	}
	wg.Wait()
	sl.close(time.Now())
	r := &gateResult{slices: sl}
	for t, tr := range results {
		if errs[t] != nil {
			return nil, errs[t]
		}
		r.add(tr)
		r.taskIDs[t] = tr.taskIDs[t]
	}
	j1 := c.jr.Stats()
	r.journal = journal.Stats{Appends: j1.Appends - j0.Appends, AppendedBytes: j1.AppendedBytes - j0.AppendedBytes, Syncs: j1.Syncs - j0.Syncs}
	r.stats = statsDelta(c.fc.mgr.Stats(), st0)
	return r, nil
}

// tenantLoop is one tenant's closed loop until the deadline.
func tenantLoop(cl *gate.Client, t int, tag string, deadline time.Time, seed uint64, fin *finished, sl *slicer, tr *tracer) (*gateResult, error) {
	r := &gateResult{}
	rng := rand.New(rand.NewSource(int64(seed)*gateTenants + int64(t)))
	var since int64
	for i := 0; time.Now().Before(deadline); i++ {
		key, repeated := dagKey{tag, t, i}, false
		if i%gateRepeatEvery == gateRepeatEvery-1 {
			fin.mu.Lock()
			if other := fin.keys[1-t]; len(other) > 0 {
				key, repeated = other[rng.Intn(len(other))], true
			}
			fin.mu.Unlock()
		}
		args := key.leafArgs()
		req := tr.newID()
		t0 := time.Now()
		resp, err := cl.Submit(gateSession, dagRequest(args))
		t1 := time.Now()
		tr.add("gate.Submit", req, req, t0, t1)
		r.attempted++
		if err != nil {
			var se *gate.StatusError
			if errors.As(err, &se) && se.Code == http.StatusTooManyRequests {
				r.rejections++
			}
			r.failed++
			continue
		}
		if len(resp.Tasks) != gateLeaves+1 {
			return nil, fmt.Errorf("gate acknowledged %d tasks, want %d", len(resp.Tasks), gateLeaves+1)
		}
		merge := resp.Tasks[gateLeaves]
		ok := true
		if !merge.Warm {
			ok, since, err = awaitMerge(cl, merge.ID, since, req, r, tr)
			if err != nil {
				return nil, err
			}
		}
		doneAt := time.Now()
		tr.add("gate.wait", req, req, t1, doneAt)
		if !ok {
			r.failed++
			sl.observe(doneAt, 0)
			continue
		}
		sl.observe(doneAt, gateLeaves+1)
		f0 := time.Now()
		data, err := cl.Fetch(merge.Outputs["v"])
		tr.add("gate.Fetch", req, req, f0, time.Now())
		if err != nil {
			r.failed++
			continue
		}
		if err := checkMerge(args, data); err != nil {
			r.checkErr = firstErr(r.checkErr, fmt.Errorf("gate: tenant %d DAG %v: %w", t, key, err))
		}
		tr.root("dag", req, t0, time.Now())
		if repeated {
			r.repeats++
			if merge.Warm {
				r.warmRepeats++
			}
		} else {
			fin.mu.Lock()
			fin.keys[t] = append(fin.keys[t], key)
			fin.mu.Unlock()
		}
		if doneAt.Before(deadline) {
			r.dags++
			r.latency = append(r.latency, ms(doneAt.Sub(t0)))
			if !repeated {
				r.freshDAGs++
				if tr != nil {
					r.taskIDs[t] = append(r.taskIDs[t], resp.Tasks[0].ID, merge.ID)
				}
			}
		}
	}
	return r, nil
}

// awaitMerge long-polls the session's events until the merge task
// finishes, returning whether it succeeded and the last sequence seen.
func awaitMerge(cl *gate.Client, mergeID string, since int64, req uint64, r *gateResult, tr *tracer) (bool, int64, error) {
	for {
		p0 := time.Now()
		evs, err := cl.Events(gateSession, since, gatePollWait)
		tr.add("gate.Events", req, req, p0, time.Now())
		r.polls++
		if err != nil {
			return false, since, fmt.Errorf("gate events: %w", err)
		}
		for _, ev := range evs {
			since = ev.Seq
			if ev.Task != mergeID {
				continue
			}
			switch ev.Type {
			case "task_done":
				return true, since, nil
			case "task_fail":
				return false, since, nil
			}
		}
	}
}

func runGateSessions(e *env) (*outcome, error) {
	out := newOutcome()
	fin := &finished{}
	if !e.traced {
		setup, c, err := setupRepeated(setupTrials, func(i int) []string { return gateDirs(e, i) },
			func(i int) (*gateCluster, error) { return startGateCluster(e, i, false) })
		if err != nil {
			return nil, err
		}
		defer c.stop()
		r, err := gateLoop(c, fmt.Sprintf("%d", e.seed), e.window, e.seed, fin, nil)
		if err != nil {
			return nil, err
		}
		out.attempted, out.failed, out.checkErr = r.attempted, r.failed, r.checkErr
		out.metrics["setup_s"] = setup
		out.metrics["tasks_per_s"] = r.slices.rate()
		out.setPct("latency_p50_ms", r.latency, 0.5)
		out.metrics["cpu_ms_per_task"] = r.slices.cpuPerTask()
		return out, nil
	}

	half := e.window / 2
	if err := mkdirs(append(gateDirs(e, 0), gateDirs(e, 1)...)...); err != nil {
		return nil, err
	}
	base, err := startGateCluster(e, 0, false)
	if err != nil {
		return nil, err
	}
	r0, err := gateLoop(base, fmt.Sprintf("%d/base", e.seed), half, e.seed, &finished{}, nil)
	base.stop()
	if err != nil {
		return nil, err
	}
	c, err := startGateCluster(e, 1, true)
	if err != nil {
		return nil, err
	}
	defer c.stop()
	gs := startGoSampler()
	r, err := gateLoop(c, fmt.Sprintf("%d/traced", e.seed), half, e.seed, fin, e.tr)
	gcFrac, heapMB := gs.finish()
	if err != nil {
		return nil, err
	}
	queueWait, exec, err := sampleTaskStatus(c, r, e.seed, e.tr)
	if err != nil {
		return nil, err
	}
	out.attempted = r0.attempted + r.attempted
	out.failed = r0.failed + r.failed
	out.checkErr = firstErr(r0.checkErr, r.checkErr)
	out.setPct("latency_p99_ms", r.latency, 0.99)
	out.metrics["failed_frac"] = ratio(float64(out.failed), float64(out.attempted))
	out.setPct("vine.queue_wait_p50_ms", queueWait, 0.5)
	out.setPct("vine.queue_wait_p99_ms", queueWait, 0.99)
	out.setPct("vine.exec_p50_ms", exec, 0.5)
	setVineCounters(out, r.stats)
	if err := setGateLayers(e, out, r); err != nil {
		return nil, err
	}
	out.metrics["gate.rejections"] += float64(r0.rejections)
	ns, allocs := probeSched(e.tr, gateSchedShape())
	out.metrics["sched.assign_ns"], out.metrics["sched.assign_allocs"] = ns, allocs
	out.metrics["go.gc_cpu_frac"], out.metrics["go.heap_peak_mb"] = gcFrac, heapMB
	out.metrics["peak_rss_mb"] = peakRSSMB()
	out.metrics["trace.overhead_frac"] = ratio(r0.slices.rate(), r.slices.rate()) - 1
	return out, nil
}

// setGateLayers fills the gate and journal per-layer metrics from one
// traced gate window, with the journal append probe.
func setGateLayers(e *env, out *outcome, r *gateResult) error {
	fresh := float64(gateLeaves+1) * float64(r.freshDAGs)
	out.metrics["journal.appends_per_task"] = ratio(float64(r.journal.Appends), fresh)
	out.metrics["journal.bytes_per_task"] = ratio(float64(r.journal.AppendedBytes), fresh)
	out.metrics["journal.appends_per_sync"] = ratio(float64(r.journal.Appends), float64(r.journal.Syncs))
	appendP50, err := probeJournal(e, dagRequest(dagKey{"probe", 0, 0}.leafArgs()))
	if err != nil {
		return err
	}
	out.metrics["journal.append_p50_us"] = appendP50
	submit, wait := toMS(e.tr.durations("gate.Submit")), toMS(e.tr.durations("gate.wait"))
	out.setPct("gate.submit_p50_ms", submit, 0.5)
	out.setPct("gate.submit_p99_ms", submit, 0.99)
	out.setPct("gate.wait_p50_ms", wait, 0.5)
	out.setPct("gate.wait_p99_ms", wait, 0.99)
	out.metrics["gate.polls_per_dag"] = ratio(float64(r.polls), float64(r.attempted))
	out.metrics["gate.warm_hit_ratio"] = ratio(float64(r.warmRepeats), float64(r.repeats))
	out.metrics["gate.rejections"] = float64(r.rejections)
	e.tr.count("gate.dags", r.dags)
	e.tr.count("gate.polls", r.polls)
	return nil
}

// gateProbeWindow is how long the gate probe in calls-flat's traced run
// drives the gate-sessions loop.
const gateProbeWindow = 4 * time.Second

// probeGateLayers runs the gate-sessions loop traced on a fresh gate
// cluster for gateProbeWindow, checks its outputs like gate-sessions
// does, and fills the gate and journal per-layer metrics. gate-sessions
// is not a benchmark workload (see README.md), so this probe is where
// those two layers are measured in every traced calls-flat run.
func probeGateLayers(e *env, out *outcome) error {
	const slot = 2 // scratch slot after the two calls-flat clusters
	if err := mkdirs(gateDirs(e, slot)...); err != nil {
		return err
	}
	c, err := startGateCluster(e, slot, false)
	if err != nil {
		return err
	}
	defer c.stop()
	r, err := gateLoop(c, fmt.Sprintf("%d/probe", e.seed), gateProbeWindow, e.seed, &finished{}, e.tr)
	if err != nil {
		return err
	}
	out.attempted += r.attempted
	out.failed += r.failed
	out.checkErr = firstErr(out.checkErr, r.checkErr)
	return setGateLayers(e, out, r)
}

// sampleTaskStatus reads back a seeded sample of the traced window's
// fresh tasks and returns their submit→first-dispatch waits and
// execution times in ms.
func sampleTaskStatus(c *gateCluster, r *gateResult, seed uint64, tr *tracer) (wait, exec []float64, err error) {
	rng := rand.New(rand.NewSource(int64(seed)))
	for t, ids := range r.taskIDs {
		for k := 0; k < gateQueueSample/gateTenants && len(ids) > 0; k++ {
			id := ids[rng.Intn(len(ids))]
			t0 := time.Now()
			st, err := c.clients[t].TaskStatus(gateSession, id)
			tr.add("gate.TaskStatus", 0, 0, t0, time.Now())
			if err != nil {
				return nil, nil, err
			}
			if st.DispatchUnixNanos > 0 {
				wait = append(wait, ms(time.Duration(st.DispatchUnixNanos-st.SubmitUnixNanos)))
			}
			exec = append(exec, ms(time.Duration(st.ExecNanos)))
		}
	}
	return wait, exec, nil
}

// probeJournal times journal.Append of gate-shaped task_def records, one
// DAG's worth per group, on a fresh journal with the default group
// commit, and returns the median append in µs.
func probeJournal(e *env, dag gate.SubmitRequest) (float64, error) {
	dir := filepath.Join(e.scratch, "journal-probe")
	jr, err := journal.Open(dir, journal.Options{})
	if err != nil {
		return 0, err
	}
	defer jr.Close()
	t0 := time.Now()
	var samples []float64
	for n := 0; n < 200; n++ {
		for i, ts := range dag.Tasks {
			rec := &journal.Record{Kind: journal.KindTaskDef, TaskID: n*len(dag.Tasks) + i,
				DefHash: fmt.Sprintf("%064x", n*len(dag.Tasks)+i),
				Spec: &journal.TaskSpec{Mode: ts.Mode, Library: ts.Library, Func: ts.Func,
					Args: ts.Args, Outputs: ts.Outputs, Queue: "tenant:probe"}}
			for _, in := range ts.Inputs {
				rec.Spec.Inputs = append(rec.Spec.Inputs, journal.FileRef{Name: in.Name, CacheName: fmt.Sprintf("%064x", i)})
			}
			a0 := time.Now()
			if _, err := jr.Append(rec); err != nil {
				return 0, err
			}
			samples = append(samples, us(time.Since(a0)))
		}
	}
	e.tr.add("journal.probe", 0, 0, t0, time.Now())
	return median(samples), nil
}

// gateSchedShape is one gate DAG as the scheduler sees it: 16 leaves
// without inputs and a merge reading all 16 leaf outputs, on one 2-core
// worker holding them.
func gateSchedShape() schedShape {
	outs := make([]string, gateLeaves)
	for i := range outs {
		outs[i] = fmt.Sprintf("leaf-%d", i)
	}
	return schedShape{
		workers: 1, cores: gateWorkerCores, tasks: gateLeaves + 1,
		inputs: func(i int) []string {
			if i == gateLeaves {
				return outs
			}
			return nil
		},
		cached: map[int][]string{0: outs},
	}
}
