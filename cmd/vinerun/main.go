// Command vinerun executes a complete analysis workflow on the live
// TaskVine engine: it takes (or synthesizes) a dataset of .vrt event files,
// partitions it into chunks, lowers the chosen processor into a task graph,
// and runs it with either in-process workers or external vineworker
// processes that dial in.
//
// Self-contained run, 4 local workers:
//
//	vinerun -processor dv3 -generate 8x20000 -workers 4
//
// With external workers (start vineworker against the printed address):
//
//	vinerun -processor met -data ./mydata -workers 0 -min-workers 2
//
// Hot standby (high availability): a journaled primary holds a leadership
// lease in its run directory; a second vinerun started with -standby tails
// the same journal, and when the primary dies it takes over on the given
// address and drives the identical workflow to completion, warm from the
// replayed history. Point workers at both with vineworker -managers.
//
//	vinerun -processor met -data ./mydata -journal ./run -workers 0          # primary
//	vinerun -processor met -data ./mydata -journal ./run -workers 0 \
//	        -standby 127.0.0.1:9200                                          # standby
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"hepvine/internal/apps"
	"hepvine/internal/coffea"
	"hepvine/internal/dag"
	"hepvine/internal/daskvine"
	"hepvine/internal/ha"
	"hepvine/internal/journal"
	"hepvine/internal/obs"
	"hepvine/internal/pool"
	"hepvine/internal/rootio"
	"hepvine/internal/vine"
)

func main() {
	processor := flag.String("processor", "met", "registered processor: met, dv3, rs-triphoton")
	data := flag.String("data", "", "directory of .vrt files (omit with -generate)")
	fileset := flag.String("fileset", "", "fileset JSON manifest (overrides -data/-generate)")
	generate := flag.String("generate", "", "synthesize a dataset, e.g. 8x20000 (files x events)")
	chunk := flag.Int64("chunk", 5000, "events per chunk")
	fanIn := flag.Int("fanin", 2, "accumulation fan-in; <2 = single reduction task")
	workers := flag.Int("workers", 4, "in-process workers to start (0 = external only)")
	cores := flag.Int("cores", 4, "cores per in-process worker")
	minWorkers := flag.Int("min-workers", 1, "wait for this many workers before running")
	mode := flag.String("mode", "function-calls", "execution mode: tasks or function-calls")
	hoist := flag.Bool("hoist", true, "hoist library imports")
	timeout := flag.Duration("timeout", 10*time.Minute, "workflow timeout")
	trace := flag.String("trace", "", "write a JSONL event trace to this file")
	metrics := flag.Bool("metrics", false, "dump the manager metrics registry after the run")
	journalDir := flag.String("journal", "", "durable run directory: journal + persistent worker caches; repeat a run against it for a warm restart")
	standby := flag.String("standby", "", "run as a hot standby that takes over on this address when the primary's lease lapses (requires -journal)")
	poolMin := flag.Int("pool-min", 1, "with -pool-max: autoscaled pool floor")
	poolMax := flag.Int("pool-max", 0, "autoscale an in-process worker pool between -pool-min and this instead of the fixed -workers pool (0 = fixed)")
	foremen := flag.Int("foremen", 0, "run federated: a root manager over this many foreman shards instead of a flat worker pool")
	workersPerForeman := flag.Int("workers-per-foreman", 2, "with -foremen, in-process workers started in each shard")
	flag.Parse()

	if err := run(*processor, *data, *generate, *fileset, *chunk, *fanIn, *workers, *cores, *minWorkers, *mode, *hoist, *timeout, *trace, *metrics, *journalDir, *standby, *poolMin, *poolMax, *foremen, *workersPerForeman); err != nil {
		log.Fatalf("vinerun: %v", err)
	}
}

func run(processor, data, generate, filesetPath string, chunkSize int64, fanIn, nWorkers, cores, minWorkers int,
	mode string, hoist bool, timeout time.Duration, tracePath string, dumpMetrics bool, journalDir, standbyAddr string,
	poolMin, poolMax, foremen, workersPerForeman int) error {

	if standbyAddr != "" && journalDir == "" {
		return fmt.Errorf("-standby requires -journal (the directory whose journal and lease it watches)")
	}
	if foremen > 0 && (standbyAddr != "" || journalDir != "" || poolMax > 0) {
		return fmt.Errorf("-foremen is incompatible with -standby, -journal, and -pool-max")
	}

	apps.RegisterProcessors()
	if err := vine.RegisterLibrary(daskvine.NewLibrary(100 * time.Millisecond)); err != nil {
		return err
	}
	if _, err := coffea.Lookup(processor); err != nil {
		return fmt.Errorf("%w (registered: %s)", err, strings.Join(coffea.RegisteredProcessors(), ", "))
	}
	var taskMode vine.TaskMode
	switch mode {
	case "tasks", "task":
		taskMode = vine.ModeTask
	case "function-calls", "function-call", "functions":
		taskMode = vine.ModeFunctionCall
	default:
		return fmt.Errorf("unknown mode %q", mode)
	}

	// Locate or synthesize the dataset.
	if filesetPath == "" && data == "" && generate == "" {
		generate = "4x10000"
	}
	if filesetPath == "" && generate != "" {
		var nFiles, nEvents int
		if _, err := fmt.Sscanf(generate, "%dx%d", &nFiles, &nEvents); err != nil || nFiles <= 0 || nEvents <= 0 {
			return fmt.Errorf("bad -generate %q, want FILESxEVENTS", generate)
		}
		dir, err := os.MkdirTemp("", "vinerun-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		fmt.Printf("synthesizing %d files x %d events...\n", nFiles, nEvents)
		if _, err := rootio.WriteDataset(dir, rootio.DatasetSpec{
			Name: "generated", Files: nFiles, EventsPerFile: nEvents,
			Gen: rootio.GenOptions{Seed: 1, SignalFrac: 0.03, MeanPhot: 1.0},
		}); err != nil {
			return err
		}
		data = dir
	}

	// Build the fileset: explicit manifest, or a scan of the data dir.
	var fset *coffea.Fileset
	var err error
	if filesetPath != "" {
		fset, err = coffea.LoadFileset(filesetPath)
	} else {
		fset, err = coffea.ScanDirFileset("dataset", data)
	}
	if err != nil {
		return err
	}
	datasets, err := fset.Chunks(chunkSize)
	if err != nil {
		return err
	}
	nChunks, nFiles := 0, 0
	for _, name := range fset.Names() {
		nChunks += len(datasets[name])
		nFiles += len(fset.Datasets[name])
	}
	var graph *dag.Graph
	var root dag.Key
	if len(datasets) == 1 {
		graph, root, err = coffea.BuildGraph(processor, datasets[fset.Names()[0]], coffea.GraphOptions{FanIn: fanIn})
	} else {
		graph, root, err = coffea.BuildMultiDatasetGraph(processor, datasets, coffea.GraphOptions{FanIn: fanIn})
	}
	if err != nil {
		return err
	}
	fmt.Printf("workflow: %s over %d events in %d files / %d datasets -> %d chunks, %d tasks (width %d, depth %d)\n",
		processor, fset.TotalEvents(), nFiles, len(datasets), nChunks, graph.Len(), graph.MaxWidth(), graph.CriticalPathLen())

	var rec *obs.Recorder
	if tracePath != "" {
		rec = obs.NewRecorder()
	}
	mgrOpts := []vine.Option{
		vine.WithPeerTransfers(true),
		vine.WithLibrary(daskvine.LibraryName, hoist),
		vine.WithRecorder(rec),
	}
	var mgr *vine.Manager
	var jr *journal.Journal
	var fed *vine.LocalFederation
	switch {
	case foremen > 0:
		// Federated run: a root manager leases task batches to foreman
		// shards, each with its own scheduler and in-process worker pool;
		// cross-shard inputs ride root-brokered peer-transfer tickets.
		fed, err = vine.NewLocalFederation(vine.LocalConfig{
			Foremen:           foremen,
			WorkersPerForeman: workersPerForeman,
			CoresPerWorker:    cores,
			RootOptions:       []vine.Option{vine.WithRecorder(rec)},
			LocalOptions: func(int) []vine.Option {
				return []vine.Option{
					vine.WithPeerTransfers(true),
					vine.WithLibrary(daskvine.LibraryName, hoist),
					vine.WithRecorder(rec),
				}
			},
			WorkerOptions: func(shard, n int) []vine.Option {
				return []vine.Option{vine.WithRecorder(rec)}
			},
		})
		if err != nil {
			return err
		}
		defer fed.Stop()
		mgr = fed.Root
		nWorkers, minWorkers = 0, foremen
		fmt.Printf("federated: root %s over %d foremen x %d workers x %d cores\n",
			mgr.Addr(), foremen, workersPerForeman, cores)
	case standbyAddr != "":
		// Hot standby: tail the primary's journal and lease; on takeover
		// the standby's manager comes up warm and this process drives the
		// identical workflow to completion.
		sb, err := ha.NewStandby(ha.Config{
			JournalDir:     filepath.Join(journalDir, "journal"),
			Addr:           standbyAddr,
			Name:           fmt.Sprintf("standby-%d", os.Getpid()),
			ManagerOptions: mgrOpts,
			Recorder:       rec,
		})
		if err != nil {
			return err
		}
		fmt.Printf("hot standby: tailing %s, will take over on %s when the primary's lease lapses\n",
			filepath.Join(journalDir, "journal"), standbyAddr)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
		select {
		case <-sb.Ready():
		case s := <-sig:
			fmt.Printf("standby: %v before takeover (%d journal records folded), exiting\n", s, sb.Applied())
			sb.Stop()
			return nil
		}
		signal.Stop(sig)
		if err := sb.Err(); err != nil {
			return err
		}
		defer sb.Stop()
		mgr = sb.Manager()
		fmt.Printf("takeover: manager listening at %s (%d journal records folded)\n", mgr.Addr(), sb.Applied())
	case journalDir != "":
		if err := os.MkdirAll(journalDir, 0o755); err != nil {
			return err
		}
		jr, err = journal.Open(filepath.Join(journalDir, "journal"), journal.Options{})
		if err != nil {
			return err
		}
		defer jr.Close()
		// Hold the leadership lease alongside the journal so a -standby
		// vinerun can detect this primary's death and take over.
		lease, err := ha.AcquireLease(ha.DefaultLeasePath(jr.Dir()), "primary", ha.DefaultTTL)
		if err != nil {
			return err
		}
		defer lease.Release()
		mgrOpts = append(mgrOpts, vine.WithJournal(jr), vine.WithLease(lease))
		fallthrough
	default:
		if mgr == nil {
			mgr, err = vine.NewManager(mgrOpts...)
			if err != nil {
				return err
			}
			defer mgr.Stop()
		}
		fmt.Printf("manager listening at %s\n", mgr.Addr())
	}
	if jr != nil {
		jst := jr.Stats()
		if jst.Replayed > 0 {
			fmt.Printf("journal: replayed %d records (%d skipped) from %s\n", jst.Replayed, jst.Skipped, jr.Dir())
		}
	}
	var scaler *pool.Autoscaler
	if poolMax > 0 {
		// Elastic mode: an autoscaled local pool replaces the fixed
		// -workers loop. The control loop grows the pool with queue
		// backlog and shrinks it by graceful drain when the run goes
		// quiet.
		prov := pool.NewLocalProvider(mgr.Addr(), func(name string) []vine.Option {
			return []vine.Option{vine.WithCores(cores), vine.WithRecorder(rec)}
		})
		scaler = pool.NewAutoscaler(mgr, prov, pool.Config{Min: poolMin, Max: poolMax})
		scaler.Start()
		defer func() {
			scaler.Stop()
			prov.StopAll()
		}()
		nWorkers = 0
		if minWorkers > poolMin {
			minWorkers = poolMin
		}
		fmt.Printf("elastic pool: autoscaling between %d and %d workers\n", poolMin, poolMax)
	}
	for i := 0; i < nWorkers; i++ {
		wOpts := []vine.Option{
			vine.WithName(fmt.Sprintf("local-%d", i)),
			vine.WithCores(cores),
			vine.WithRecorder(rec),
		}
		if journalDir != "" {
			// Stable per-worker cache dirs make the second run warm: the
			// scrubbed survivors come back as replicas in the hello.
			wOpts = append(wOpts,
				vine.WithCacheDir(filepath.Join(journalDir, fmt.Sprintf("worker-%d", i))),
				vine.WithPersistentCache(true),
				vine.WithReconnect(20, 250*time.Millisecond),
			)
		}
		w, err := vine.NewWorker(mgr.Addr(), wOpts...)
		if err != nil {
			return err
		}
		defer w.Stop()
	}
	need := minWorkers
	if nWorkers > need {
		need = nWorkers
	}
	if nWorkers == 0 && fed == nil {
		fmt.Printf("waiting for %d external vineworker(s) to connect...\n", need)
	}
	if err := mgr.WaitForWorkers(need, 10*time.Minute); err != nil {
		return err
	}
	fmt.Printf("%d workers connected; running in %s mode (hoist=%v)\n", mgr.WorkerCount(), taskMode, hoist)

	start := time.Now()
	result, err := daskvine.Run(mgr, graph, root, daskvine.Options{Mode: taskMode, Timeout: timeout})
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	st := mgr.Stats()
	fmt.Printf("\ncompleted in %v: %d tasks (%d retries), %d peer transfers (%.1f MB), %d manager transfers, %d workers lost\n",
		elapsed.Round(time.Millisecond), st.TasksDone, st.Retries,
		st.PeerTransfers, float64(st.PeerBytes)/1e6, st.ManagerTransfers, st.WorkersLost)
	if jr != nil || standbyAddr != "" {
		fmt.Printf("durability: %d warm hits, %d journal appends, %d records replayed at startup\n",
			st.WarmHits, st.JournalAppends, st.JournalReplayed)
	}
	if standbyAddr != "" {
		fmt.Printf("availability: takeover latency %v (lease expiry to first dispatch)\n",
			mgr.TakeoverLatency().Round(time.Millisecond))
	}
	if scaler != nil {
		ups, downs := scaler.ScaleEvents()
		fmt.Printf("elasticity: pool peaked at %d workers (%d scale-ups, %d drains), %d preemptions, %d sole-replica offloads\n",
			scaler.Peak(), ups, downs, st.Preemptions, st.SoleReplicaOffloads)
	}
	if fed != nil {
		fst := mgr.FederationStats()
		fmt.Printf("federation: %d task leases in %d batched frames; %d cross-shard transfers (%.1f MB)\n",
			fst.LeaseGrants, fst.LeaseBatches, fst.CrossShard, float64(fst.CrossShardBytes)/1e6)
		for _, sh := range fst.Shards {
			fmt.Printf("  shard %-12s %5d tasks, %4d cached files, backlog %d\n",
				sh.Name, sh.TasksDone, sh.CachedFiles, sh.Backlog)
		}
	}

	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		if err := rec.WriteJSONL(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("trace: %d events -> %s\n", rec.Len(), tracePath)
	}
	if dumpMetrics {
		fmt.Println("\n# manager metrics")
		mgr.WriteMetrics(os.Stdout)
	}

	for _, name := range result.Names() {
		h := result.H[name]
		fmt.Printf("\n%s: %s\n", name, h)
		coarse := h
		if h.Axes[0].Bins%4 == 0 {
			if c, err := h.Rebin(4); err == nil {
				coarse = c
			}
		}
		fmt.Println(coarse.ASCII(50))
	}
	return nil
}
