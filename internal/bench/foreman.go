package bench

import (
	"fmt"
	"io"
	"time"

	"hepvine/internal/foreman"
	"hepvine/internal/vine"
)

// The foreman experiment measures what the federation tier buys at the
// dispatch bottleneck: a flood of tiny independent tasks — where control
// handling, not computation, is the limit — runs on a flat manager and
// on 2- and 4-foreman trees with the same total worker pool. The root
// leases deep batches to shards instead of dispatching tasks to workers,
// so its control frames drop by the lease-batch factor and the queue —
// the quadratic part of a busy manager's life — shards across foremen.
// A second wave of fan-out consumers on a tight-capacity tree then pulls
// one shard's output into the others, exercising (and accounting) the
// root-brokered peer-transfer ticket path.

func init() {
	register(Experiment{
		ID:    "foreman",
		Title: "Hierarchical foremen: tiny-task dispatch throughput, flat vs federated",
		Paper: "§V scales to thousands of workers where a single manager's control loop saturates on tiny tasks; a foreman tier amortizes root traffic into batched leases and shards the queue",
		Run:   runForeman,
	})
}

const foremanBenchLib = "foremanbench"

// ctrlCost is the modelled per-control-frame manager cost (see
// vine.WithControlOverhead): ~0.5ms of serialized protocol handling per
// dispatch/completion/lease/report frame, the measured order of a
// production manager's single-threaded loop. Every manager in every
// config pays it — flat per task, federation shards per task, the root
// per batched frame — so the federated speedup comes from structure
// (lease batching and queue sharding), not an unevenly applied handicap.
const ctrlCost = 500 * time.Microsecond

func registerForemanBenchLib() {
	vine.MustRegisterLibrary(&vine.Library{
		Name: foremanBenchLib,
		Funcs: map[string]vine.Function{
			"tick": func(c *vine.Call) error {
				c.SetOutput("out", append([]byte("t"), c.Args...))
				return nil
			},
			"fan": func(c *vine.Call) error {
				in, err := c.Input("in")
				if err != nil {
					return err
				}
				c.SetOutput("out", append(in, c.Args...))
				return nil
			},
		},
	})
}

type foremanRun struct {
	label      string
	foremen    int
	tasks      int
	dur        time.Duration
	rate       float64
	frames     int // root control frames carrying task placements
	crossShard int
	crossBytes int64
}

func runForeman(opts Options, w io.Writer) error {
	registerForemanBenchLib()
	tasks := opts.scaled(3000, 120)
	const totalWorkers, coresPer = 8, 2

	var runs []foremanRun
	for _, n := range []int{0, 2, 4} {
		fr, err := runForemanFlood(opts, n, totalWorkers, coresPer, tasks)
		if err != nil {
			return err
		}
		if n > 0 {
			fr.crossShard, fr.crossBytes, err = runForemanFanout(opts, n, totalWorkers, coresPer)
			if err != nil {
				return err
			}
		}
		runs = append(runs, fr)
	}

	if csv, err := opts.csvFile("foreman"); err != nil {
		return err
	} else if csv != nil {
		defer csv.Close()
		fmt.Fprintln(csv, "config,foremen,tasks,runtime_s,tasks_per_s,root_frames,cross_shard_tickets,cross_shard_bytes")
		for _, fr := range runs {
			fmt.Fprintf(csv, "%s,%d,%d,%.4f,%.0f,%d,%d,%d\n",
				fr.label, fr.foremen, fr.tasks, fr.dur.Seconds(), fr.rate,
				fr.frames, fr.crossShard, fr.crossBytes)
		}
	}

	row(w, "Config", "Tasks", "Runtime", "Tasks/s", "Root frames", "X-shard bytes")
	for _, fr := range runs {
		row(w, fr.label,
			fmt.Sprintf("%d", fr.tasks),
			fmt.Sprintf("%.2fs", fr.dur.Seconds()),
			fmt.Sprintf("%.0f", fr.rate),
			fmt.Sprintf("%d", fr.frames),
			fmt.Sprintf("%d", fr.crossBytes))
	}
	flat, four := runs[0], runs[len(runs)-1]
	fmt.Fprintf(w, "   4-foreman speedup over flat: %.2fx (%.0f vs %.0f tasks/s); root placement frames %d -> %d\n",
		four.rate/flat.rate, four.rate, flat.rate, flat.frames, four.frames)
	for _, fr := range runs[1:] {
		if fr.crossShard == 0 {
			return fmt.Errorf("foreman: %s brokered no cross-shard tickets", fr.label)
		}
		if fr.frames >= fr.tasks {
			return fmt.Errorf("foreman: %s sent %d root frames for %d tasks — lease batching is off", fr.label, fr.frames, fr.tasks)
		}
	}
	return nil
}

// runForemanFlood is the throughput phase: tiny independent 1-core tasks
// flood the root. foremen == 0 is the flat baseline (same worker pool on
// one manager). Federated trees advertise deep lease-ahead so the root
// hands its queue to the shards in batched leases and never sits on a
// long ready set itself.
func runForemanFlood(opts Options, foremen, totalWorkers, coresPer, tasks int) (foremanRun, error) {
	fr := foremanRun{label: "flat", foremen: foremen, tasks: tasks}
	if foremen > 0 {
		fr.label = fmt.Sprintf("%d-foreman", foremen)
	}

	var root *vine.Manager
	cleanup := func() {}
	if foremen == 0 {
		mgr, err := vine.NewManager(
			vine.WithPeerTransfers(true),
			vine.WithLibrary(foremanBenchLib, true),
			vine.WithMaxRetries(5),
			vine.WithRetrySeed(opts.Seed),
			vine.WithControlOverhead(ctrlCost),
		)
		if err != nil {
			return fr, err
		}
		var ws []*vine.Worker
		for i := 0; i < totalWorkers; i++ {
			wk, err := vine.NewWorker(mgr.Addr(),
				vine.WithName(fmt.Sprintf("flat-w%d", i)),
				vine.WithCores(coresPer),
			)
			if err != nil {
				mgr.Stop()
				return fr, err
			}
			ws = append(ws, wk)
		}
		cleanup = func() {
			for _, wk := range ws {
				wk.Stop()
			}
			mgr.Stop()
		}
		if err := mgr.WaitForWorkers(totalWorkers, 10*time.Second); err != nil {
			cleanup()
			return fr, err
		}
		root = mgr
	} else {
		// Lease-ahead sized so the shards can absorb the entire flood: the
		// root's ready set stays empty and the queue lives sharded.
		leaseAhead := 1 + tasks/(totalWorkers*coresPer)
		fed, err := newBenchFederation(opts, foremen, totalWorkers, coresPer, leaseAhead)
		if err != nil {
			return fr, err
		}
		cleanup = fed.Stop
		root = fed.Root
	}
	defer cleanup()

	start := time.Now()
	handles := make([]*vine.TaskHandle, 0, tasks)
	for i := 0; i < tasks; i++ {
		h, err := root.Submit(vine.Task{
			Mode: vine.ModeTask, Library: foremanBenchLib, Func: "tick",
			Args: []byte(fmt.Sprintf("%s-%d", fr.label, i)), Outputs: []string{"out"}, Cores: 1,
		})
		if err != nil {
			return fr, err
		}
		handles = append(handles, h)
	}
	for i, h := range handles {
		if err := h.Wait(3 * time.Minute); err != nil {
			return fr, fmt.Errorf("foreman %s: task %d: %w", fr.label, i, err)
		}
	}
	fr.dur = time.Since(start)
	fr.rate = float64(tasks) / fr.dur.Seconds()

	if foremen == 0 {
		// One dispatch frame per task placement (plus one per retry).
		st := root.Stats()
		fr.frames = st.TasksDone + st.Retries
	} else {
		fr.frames = root.FederationStats().LeaseBatches
	}
	return fr, nil
}

// runForemanFanout is the data-plane phase on a tight tree (lease-ahead
// 1): one seed output, then more 1-core consumers than the seed's shard
// has cores, so the spill-over consumers must ride peer-transfer tickets
// into the sibling shards. Returns the root's cross-shard accounting.
func runForemanFanout(opts Options, foremen, totalWorkers, coresPer int) (int, int64, error) {
	const fanout = 48
	fed, err := newBenchFederation(opts, foremen, totalWorkers, coresPer, 1)
	if err != nil {
		return 0, 0, err
	}
	defer fed.Stop()

	seed, err := fed.Root.Submit(vine.Task{
		Mode: vine.ModeTask, Library: foremanBenchLib, Func: "tick",
		Args: []byte("seed"), Outputs: []string{"out"}, Cores: 1,
	})
	if err != nil {
		return 0, 0, err
	}
	if err := seed.Wait(time.Minute); err != nil {
		return 0, 0, err
	}
	seedCN, _ := seed.Output("out")
	handles := make([]*vine.TaskHandle, 0, fanout)
	for i := 0; i < fanout; i++ {
		h, err := fed.Root.Submit(vine.Task{
			Mode: vine.ModeTask, Library: foremanBenchLib, Func: "fan",
			Args:    []byte(fmt.Sprintf("#%d", i)),
			Inputs:  []vine.FileRef{{Name: "in", CacheName: seedCN}},
			Outputs: []string{"out"}, Cores: 1,
		})
		if err != nil {
			return 0, 0, err
		}
		handles = append(handles, h)
	}
	for i, h := range handles {
		if err := h.Wait(time.Minute); err != nil {
			return 0, 0, fmt.Errorf("foreman fanout %d: %w", i, err)
		}
	}
	st := fed.Root.FederationStats()
	return st.CrossShard, st.CrossShardBytes, nil
}

func newBenchFederation(opts Options, foremen, totalWorkers, coresPer, leaseAhead int) (*foreman.LocalFederation, error) {
	fed, err := foreman.NewLocalFederation(foreman.LocalConfig{
		Foremen:           foremen,
		WorkersPerForeman: totalWorkers / foremen,
		CoresPerWorker:    coresPer,
		LeaseAhead:        leaseAhead,
		RootOptions: []vine.Option{
			vine.WithMaxRetries(5),
			vine.WithRetrySeed(opts.Seed),
			vine.WithControlOverhead(ctrlCost),
		},
		LocalOptions: func(int) []vine.Option {
			return []vine.Option{
				vine.WithPeerTransfers(true),
				vine.WithLibrary(foremanBenchLib, true),
				vine.WithMaxRetries(5),
				vine.WithControlOverhead(ctrlCost),
			}
		},
	})
	if err != nil {
		return nil, err
	}
	if err := fed.Root.WaitForWorkers(foremen, 10*time.Second); err != nil {
		fed.Stop()
		return nil, err
	}
	return fed, nil
}
