package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"hepvine/internal/apps"
	"hepvine/internal/coffea"
	"hepvine/internal/dag"
	"hepvine/internal/daskvine"
	"hepvine/internal/foreman"
	"hepvine/internal/obs"
	"hepvine/internal/rootio"
	"hepvine/internal/sched"
	"hepvine/internal/vine"
)

// dv3-flat and dv3-foremen run the paper's DV3 analysis graph over a
// seeded synthetic JetHT dataset in function-call mode with the library
// hoisted and peer transfers on. dv3-flat uses one flat manager with two
// 1-core workers; dv3-foremen the same inputs and graph on a 2-foreman
// tree with one 1-core worker per shard, built the way
// `vinerun -foremen 2 -workers-per-foreman 1` builds it, with the shipped
// report cadence and lease-ahead defaults. Each repetition runs on a
// freshly started cluster, so no repetition is served from an earlier
// one's caches.

const (
	dv3Files         = 4
	dv3EventsPerFile = 100_000
	dv3ChunkEvents   = 6250 // 16 chunks per file: 64 processor tasks
	dv3FanIn         = 4
	dv3Workers       = 2 // 1-core workers (flat) or shards (foremen)
	dv3RunTimeout    = 150 * time.Second
)

func init() {
	apps.RegisterProcessors()
	vine.MustRegisterLibrary(daskvine.NewLibrary(libraryImportDelay))
}

// dv3Inputs are one seed's dataset, chunks and lowered graph.
type dv3Inputs struct {
	chunks []coffea.Chunk
	graph  *dag.Graph
	root   dag.Key
	events int64
}

// prepareDV3 synthesizes the seed's dataset, or reuses it from the
// dataset cache, and lowers the DV3 graph over it. Synthesis is not part
// of any timed interval.
func prepareDV3(e *env) (*dv3Inputs, error) {
	dir, err := filepath.Abs(filepath.Join(e.dataDir, fmt.Sprintf("jetht-seed%d", e.seed)))
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(dir, "complete")); err != nil {
		// A child process synthesizes, so the generator's memory does not
		// count toward this process's peak RSS.
		cmd := exec.Command(os.Args[0], "-synthesize", dir, "-seed", strconv.FormatUint(e.seed, 10))
		cmd.Stdout, cmd.Stderr = e.log, e.log
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("synthesizing %s: %w", dir, err)
		}
	}
	fset, err := coffea.ScanDirFileset("JetHT", dir)
	if err != nil {
		return nil, err
	}
	byDataset, err := fset.Chunks(dv3ChunkEvents)
	if err != nil {
		return nil, err
	}
	chunks := byDataset["JetHT"]
	g, root, err := coffea.BuildGraph("dv3", chunks, coffea.GraphOptions{FanIn: dv3FanIn})
	if err != nil {
		return nil, err
	}
	return &dv3Inputs{chunks: chunks, graph: g, root: root, events: fset.TotalEvents()}, nil
}

// synthesize writes the seed's JetHT dataset to dir. The files are synced
// before the directory is published, so their writeback does not land in
// a later timed window.
func synthesize(dir string, seed uint64) error {
	tmp := fmt.Sprintf("%s.tmp%d", dir, os.Getpid())
	os.RemoveAll(tmp)
	paths, err := rootio.WriteDataset(tmp, rootio.DatasetSpec{
		Name: "jetht", Files: dv3Files, EventsPerFile: dv3EventsPerFile,
		Gen: rootio.GenOptions{Seed: seed},
	})
	if err != nil {
		return err
	}
	marker := filepath.Join(tmp, "complete")
	if err := os.WriteFile(marker, nil, 0o644); err != nil {
		return err
	}
	for _, p := range append(paths, marker) {
		if err := syncFile(p); err != nil {
			return err
		}
	}
	os.RemoveAll(dir)
	return os.Rename(tmp, dir)
}

func syncFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// serialReference runs coffea.RunLocal over the same chunks on one
// thread: the ground truth every distributed result is checked against,
// and the plain-serial baseline for coffea.parallel_eff.
func serialReference(in *dv3Inputs, tr *tracer) (*coffea.HistSet, time.Duration, error) {
	p, err := coffea.Lookup("dv3")
	if err != nil {
		return nil, 0, err
	}
	runtime.GC()
	t0 := time.Now()
	hs, err := coffea.RunLocal(p, in.chunks)
	el := time.Since(t0)
	tr.add("coffea.RunLocal", 0, 0, t0, t0.Add(el))
	return hs, el, err
}

// dv3Cluster is a running flat cluster or foreman tree.
type dv3Cluster struct {
	root     *vine.Manager
	flat     *flatCluster
	fed      *foreman.LocalFederation
	libSetup time.Duration // library setup reported by the warm-up calls
}

func (c *dv3Cluster) stop() {
	if c.fed != nil {
		c.fed.Stop()
	} else {
		c.flat.stop()
	}
}

// managers lists every manager whose counters belong to the run: the
// flat manager, or the root and each shard's local manager.
func (c *dv3Cluster) managers() []*vine.Manager {
	if c.fed == nil {
		return []*vine.Manager{c.root}
	}
	ms := []*vine.Manager{c.root}
	for _, f := range c.fed.Foremen {
		ms = append(ms, f.Local())
	}
	return ms
}

func dv3ManagerOptions(rec *obs.Recorder) []vine.Option {
	return []vine.Option{
		vine.WithPeerTransfers(true),
		vine.WithLibrary(daskvine.LibraryName, true),
		vine.WithRecorder(rec),
	}
}

// startDV3Cluster brings up the topology and waits until it accepts
// work: every worker joined (on a tree, every foreman registered with the
// root and every shard's worker joined its foreman) and every worker's
// coffea library instantiated by one no-input accumulate call.
func startDV3Cluster(dir string, foremen bool, rec *obs.Recorder) (*dv3Cluster, error) {
	c, err := bringUpDV3(dir, foremen, rec)
	if err != nil {
		return nil, err
	}
	if c.libSetup, err = warmLibrary(c.root, daskvine.LibraryName, "accumulate", dv3Workers); err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

func bringUpDV3(dir string, foremen bool, rec *obs.Recorder) (*dv3Cluster, error) {
	if !foremen {
		fc, err := startFlat(dir, dv3Workers, 1, rec, dv3ManagerOptions(rec)...)
		if err != nil {
			return nil, err
		}
		return &dv3Cluster{root: fc.mgr, flat: fc}, nil
	}
	fed, err := foreman.NewLocalFederation(foreman.LocalConfig{
		Foremen:           dv3Workers,
		WorkersPerForeman: 1,
		CoresPerWorker:    1,
		RootOptions:       []vine.Option{vine.WithRecorder(rec)},
		LocalOptions:      func(int) []vine.Option { return dv3ManagerOptions(rec) },
		WorkerOptions: func(shard, n int) []vine.Option {
			return []vine.Option{
				vine.WithRecorder(rec),
				vine.WithCacheDir(filepath.Join(dir, fmt.Sprintf("shard%d-w%d", shard, n))),
			}
		},
	})
	if err != nil {
		return nil, err
	}
	c := &dv3Cluster{root: fed.Root, fed: fed}
	if err := fed.Root.WaitForWorkers(dv3Workers, joinTimeout); err != nil {
		c.stop()
		return nil, err
	}
	for _, f := range fed.Foremen {
		if err := f.Local().WaitForWorkers(1, joinTimeout); err != nil {
			c.stop()
			return nil, err
		}
	}
	return c, nil
}

// dv3Dirs lists the worker cache directories startDV3Cluster uses.
func dv3Dirs(dir string, foremen bool) []string {
	var dirs []string
	for i := 0; i < dv3Workers; i++ {
		name := fmt.Sprintf("w%d", i)
		if foremen {
			name = fmt.Sprintf("shard%d-w0", i)
		}
		dirs = append(dirs, filepath.Join(dir, name))
	}
	return dirs
}

// dv3Rep is one repetition: bring-up, one graph run, and its counters.
type dv3Rep struct {
	setup, makespan, run, cpu time.Duration
	runErr                    error
	checkErr                  error
	hs                        *coffea.HistSet
	stats                     vine.ManagerStats // summed over the run's managers

	// Traced repetitions only.
	exec, complete []float64 // ms per task
	setupMS        float64   // library setup summed over tasks
	fed            vine.FederationStats
	reports        int64
	shardDone      []int
}

// runDV3Rep brings up a fresh cluster, runs the graph once, checks the
// root HistSet against want (relTol 0 = bit-identical), and tears the
// cluster down.
func runDV3Rep(e *env, in *dv3Inputs, foremen bool, k int, want *coffea.HistSet, relTol float64, traced bool) (*dv3Rep, error) {
	dir := filepath.Join(e.scratch, fmt.Sprintf("rep%d", k))
	defer os.RemoveAll(dir)
	tr := e.tr
	if !traced {
		tr = nil
	}
	rec := e.tr.recorderIf(traced)
	if err := mkdirs(dv3Dirs(dir, foremen)...); err != nil {
		return nil, err
	}
	settle()
	t0 := time.Now()
	c, err := startDV3Cluster(dir, foremen, rec)
	if err != nil {
		return nil, err
	}
	defer c.stop()
	r := &dv3Rep{setup: time.Since(t0)}

	// Completion callbacks run on their own goroutines and may still be
	// in flight when Run returns; they record into per-task slices under
	// mu until the repetition takes its snapshot.
	var (
		mu                 sync.Mutex
		closed             bool
		execMS, completeMS []float64
		libSetupMS         float64
	)
	opts := daskvine.Options{Mode: vine.ModeFunctionCall, Timeout: dv3RunTimeout}
	req := tr.newID()
	if traced {
		opts.Recorder = rec
		opts.OnTaskDone = func(key dag.Key, h *vine.TaskHandle) {
			now := time.Now()
			disp, exec := h.FirstDispatch(), h.ExecTime()
			mu.Lock()
			defer mu.Unlock()
			if closed {
				return
			}
			execMS = append(execMS, ms(exec))
			if !disp.IsZero() {
				completeMS = append(completeMS, ms(now.Sub(disp)-exec))
			}
			libSetupMS += ms(h.SetupTime())
		}
	}
	runtime.GC()
	cpu0 := cpuTime()
	start := time.Now()
	hs, err := daskvine.Run(c.root, in.graph, in.root, opts)
	ran := time.Now()
	tr.add("daskvine.Run", req, req, start, ran)
	r.run = ran.Sub(start)
	if err != nil {
		r.runErr = err
	} else if want != nil {
		r.checkErr = compareHists(hs, want, relTol)
	}
	end := time.Now()
	tr.add("check.hists", req, req, ran, end)
	tr.root("dv3", req, start, end)
	r.makespan = end.Sub(start)
	r.cpu = cpuTime() - cpu0
	r.hs = hs
	mu.Lock()
	closed = true
	r.exec, r.complete, r.setupMS = execMS, completeMS, ms(c.libSetup)+libSetupMS
	mu.Unlock()
	for _, m := range c.managers() {
		st := m.Stats()
		r.stats.PeerBytes += st.PeerBytes
		r.stats.ManagerBytes += st.ManagerBytes
		r.stats.PeerTransfers += st.PeerTransfers
		r.stats.ManagerTransfers += st.ManagerTransfers
		r.stats.Retries += st.Retries
	}
	if traced && c.fed != nil {
		r.fed = c.root.FederationStats()
		r.reports = c.root.Metrics().Counter("vine_foreman_reports_total").Value()
		for _, f := range c.fed.Foremen {
			_, done := f.Counts()
			r.shardDone = append(r.shardDone, done)
		}
	}
	return r, nil
}

func runDV3Flat(e *env) (*outcome, error)    { return runDV3(e, false) }
func runDV3Foremen(e *env) (*outcome, error) { return runDV3(e, true) }

// runDV3 runs untimed warm-up and reference repetitions, then repeats the
// graph on fresh clusters until the window has passed. dv3-foremen must
// reproduce a flat run's histograms bit for bit; every result is also
// checked against the serial reference.
func runDV3(e *env, foremen bool) (*outcome, error) {
	in, err := prepareDV3(e)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	ref, serial, err := serialReference(in, e.tr)
	if err != nil {
		return nil, fmt.Errorf("serial reference: %w", err)
	}
	out := newOutcome()
	k := 0
	account := func(r *dv3Rep) {
		out.attempted++
		if r.runErr != nil {
			out.failed++
			fmt.Fprintf(e.log, "perfbench: dv3 run failed: %v\n", r.runErr)
		}
		out.checkErr = firstErr(out.checkErr, r.checkErr)
	}
	// The warm-up repetition is a flat run: on dv3-foremen it is also the
	// flat result the tree must reproduce exactly.
	warm, err := runDV3Rep(e, in, false, k, ref, histRelTol, false)
	if err != nil {
		return nil, err
	}
	k++
	account(warm)
	if warm.runErr != nil {
		return nil, fmt.Errorf("warm-up run: %w", warm.runErr)
	}
	want, relTol := ref, histRelTol
	if foremen {
		want, relTol = warm.hs, 0
	}
	window := func(dur time.Duration, traced bool) ([]*dv3Rep, error) {
		var reps []*dv3Rep
		start := time.Now()
		for len(reps) == 0 || time.Since(start) < dur {
			r, err := runDV3Rep(e, in, foremen, k, want, relTol, traced)
			if err != nil {
				return nil, err
			}
			k++
			account(r)
			reps = append(reps, r)
		}
		return reps, nil
	}
	tasks := float64(in.graph.Len())
	if !e.traced {
		reps, err := window(e.window, false)
		if err != nil {
			return nil, err
		}
		// Medians over repetitions, like the slice medians of the
		// closed-loop workloads.
		var setups, spans, rates, cpu []float64
		for _, r := range reps {
			setups = append(setups, secs(r.setup))
			spans = append(spans, ms(r.makespan))
			rates = append(rates, tasks/secs(r.makespan))
			cpu = append(cpu, ms(r.cpu)/tasks)
		}
		out.metrics["setup_s"] = median(setups)
		out.metrics["tasks_per_s"] = median(rates)
		out.setPct("latency_p50_ms", spans, 0.5)
		out.metrics["cpu_ms_per_task"] = median(cpu)
		return out, nil
	}

	base, err := window(e.window/2, false)
	if err != nil {
		return nil, err
	}
	gs := startGoSampler()
	reps, err := window(e.window/2, true)
	gcFrac, heapMB := gs.finish()
	if err != nil {
		return nil, err
	}
	var spans, spansMS, baseSpans, runs, exec, complete, setupMS, peer, mgrB, xfers, retries []float64
	var batches, perLease, reports, crossN, crossB, skew []float64
	for _, r := range base {
		baseSpans = append(baseSpans, secs(r.makespan))
	}
	for _, r := range reps {
		spans = append(spans, secs(r.makespan))
		spansMS = append(spansMS, ms(r.makespan))
		runs = append(runs, secs(r.run))
		exec = append(exec, r.exec...)
		complete = append(complete, r.complete...)
		setupMS = append(setupMS, r.setupMS)
		peer = append(peer, float64(r.stats.PeerBytes))
		mgrB = append(mgrB, float64(r.stats.ManagerBytes))
		xfers = append(xfers, float64(r.stats.PeerTransfers+r.stats.ManagerTransfers))
		retries = append(retries, float64(r.stats.Retries))
		if foremen {
			batches = append(batches, float64(r.fed.LeaseBatches))
			perLease = append(perLease, ratio(float64(r.fed.LeaseGrants), float64(r.fed.LeaseBatches)))
			reports = append(reports, float64(r.reports))
			crossN = append(crossN, float64(r.fed.CrossShard))
			crossB = append(crossB, float64(r.fed.CrossShardBytes))
			skew = append(skew, shardSkew(r.shardDone))
		}
	}
	makespan := median(spans)
	out.setPct("latency_p99_ms", spansMS, 0.99)
	out.setPct("makespan_s", spans, 0.5)
	out.metrics["events_per_s"] = float64(in.events) / makespan
	out.metrics["failed_frac"] = ratio(float64(out.failed), float64(out.attempted))
	out.metrics["peak_rss_mb"] = peakRSSMB()
	out.setPct("vine.exec_p50_ms", exec, 0.5)
	out.setPct("vine.complete_p50_ms", complete, 0.5)
	out.setPct("vine.complete_p99_ms", complete, 0.99)
	out.metrics["vine.library_setup_ms"] = median(setupMS)
	out.metrics["vine.peer_bytes"] = median(peer)
	out.metrics["vine.manager_bytes"] = median(mgrB)
	out.metrics["vine.transfers"] = median(xfers)
	out.metrics["vine.retries"] = median(retries)
	if foremen {
		out.metrics["foreman.lease_batches"] = median(batches)
		out.metrics["foreman.tasks_per_lease"] = median(perLease)
		out.metrics["foreman.reports"] = median(reports)
		out.metrics["foreman.cross_shard_transfers"] = median(crossN)
		out.metrics["foreman.cross_shard_bytes"] = median(crossB)
		out.metrics["foreman.shard_skew"] = median(skew)
	}
	out.setPct("daskvine.run_s", runs, 0.5)
	out.metrics["dag.tasks"] = tasks
	out.metrics["dag.critical_path"] = float64(in.graph.CriticalPathLen())
	out.metrics["coffea.serial_s"] = secs(serial)
	out.metrics["coffea.parallel_eff"] = secs(serial) / (makespan * dv3Workers)
	out.metrics["go.gc_cpu_frac"], out.metrics["go.heap_peak_mb"] = gcFrac, heapMB
	out.metrics["trace.overhead_frac"] = makespan/median(baseSpans) - 1
	ns, allocs := probeSched(e.tr, dv3SchedShape(in, foremen))
	out.metrics["sched.assign_ns"], out.metrics["sched.assign_allocs"] = ns, allocs
	return out, nil
}

// dv3SchedShape is the DV3 processor wave as the placing scheduler sees
// it: every processor task reads one dataset file, each file cached on
// one of two 1-core workers (flat) or shards (federate policy).
func dv3SchedShape(in *dv3Inputs, foremen bool) schedShape {
	files := make([]string, dv3Files)
	for i := range files {
		files[i] = fmt.Sprintf("file-%d", i)
	}
	sh := schedShape{
		workers: dv3Workers, cores: 1, tasks: len(in.chunks),
		inputs: func(i int) []string { return []string{files[i%dv3Files]} },
		cached: map[int][]string{0: files[:dv3Files/2], 1: files[dv3Files/2:]},
	}
	if foremen {
		sh.policy = sched.Federate()
	}
	return sh
}

// shardSkew is (max−min)/mean of tasks completed per shard: 0 when the
// tree spread the graph evenly.
func shardSkew(done []int) float64 {
	if len(done) == 0 {
		return 0
	}
	lo, hi, sum := done[0], done[0], 0
	for _, d := range done {
		if d < lo {
			lo = d
		}
		if d > hi {
			hi = d
		}
		sum += d
	}
	return ratio(float64(hi-lo), float64(sum)/float64(len(done)))
}
