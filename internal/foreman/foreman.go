// Package foreman implements the subordinate-manager tier of a federated
// cluster. A Foreman owns a full local vine.Manager — its own worker
// pool, replica table, scheduler, and (optionally) journal — and an
// uplink to the root manager over the ordinary vine protocol. The root
// leases task batches downward; the foreman runs them through its local
// manager exactly as a flat cluster would and reports aggregated
// completions, replica addresses, and backlog upward.
//
// Cross-shard inputs arrive as peer-transfer tickets: the root names a
// source address in another shard (or a flat worker, or its own store)
// and the foreman registers it as an external replica, so the bytes flow
// worker-to-worker without touching the root's NIC. Content-addressed
// output names make re-execution after any shard failure bit-identical,
// which is what lets the recovery ladder climb across shard boundaries.
package foreman

import (
	"fmt"
	"sync"
	"time"

	"hepvine/internal/pool"
	"hepvine/internal/vine"
)

// Options configures one foreman.
type Options struct {
	// Name identifies the shard to the root (default "foreman").
	Name string
	// RootAddr is the root manager's address. RootFallbacks (standby
	// managers from an HA deployment) are tried in order when the primary
	// dies; the uplink redials through the full list.
	RootAddr      string
	RootFallbacks []string
	// Cores and Memory advertise the shard's aggregate capacity. The root
	// reserves against these like worker capacity, so they throttle how
	// far ahead it leases.
	Cores  int
	Memory int64
	// Local passes options through to the shard's local manager
	// (scheduler, journal, cache dir, libraries, ...).
	Local []vine.Option
	// Uplink passes options to the root connection (WithReconnect,
	// WithRecorder, ...).
	Uplink []vine.Option
	// Autoscale, when non-nil, runs a local worker pool inside the shard:
	// the foreman starts a pool.Autoscaler over its local manager with
	// this config, using WorkerOptions for each launched worker.
	Autoscale     *pool.Config
	WorkerOptions func(name string) []vine.Option
}

// Foreman is one shard of a federated cluster.
type Foreman struct {
	name   string
	local  *vine.Manager
	link   *vine.ForemanLink
	scaler *pool.Autoscaler

	mu      sync.Mutex
	results []vine.LeaseResult
	backlog int
	leased  int
	done    int
	stopped bool
	// flushT is the pending one-shot report microbatch timer (see
	// finish), nil when none is armed.
	flushT *time.Timer
	stopC  chan struct{}
	wg     sync.WaitGroup
}

// New starts a foreman: local manager first (so the uplink's initial
// inventory and advertised capacity are real), then the root connection.
func New(opts Options) (*Foreman, error) {
	if opts.Name == "" {
		opts.Name = "foreman"
	}
	local, err := vine.NewManager(append([]vine.Option{vine.WithName(opts.Name)}, opts.Local...)...)
	if err != nil {
		return nil, fmt.Errorf("foreman %s: local manager: %w", opts.Name, err)
	}
	f := &Foreman{
		name:  opts.Name,
		local: local,
		stopC: make(chan struct{}),
	}
	if opts.Autoscale != nil {
		workerOpts := opts.WorkerOptions
		if workerOpts == nil {
			workerOpts = func(name string) []vine.Option { return []vine.Option{vine.WithName(name)} }
		}
		prov := pool.NewLocalProvider(local.Addr(), workerOpts)
		f.scaler = pool.NewAutoscaler(local, prov, *opts.Autoscale)
		f.scaler.Start()
	}
	uplink := append([]vine.Option{vine.WithManagers(opts.RootFallbacks...)}, opts.Uplink...)
	link, err := vine.DialForeman(opts.RootAddr, vine.ForemanHello{
		Name:   opts.Name,
		Cores:  opts.Cores,
		Memory: opts.Memory,
	}, vine.ForemanCallbacks{
		OnLease:   f.onLease,
		OnUnlink:  f.onUnlink,
		OnKill:    f.onKill,
		Inventory: local.ReplicaInventory,
	}, uplink...)
	if err != nil {
		if f.scaler != nil {
			f.scaler.Stop()
		}
		local.Stop()
		return nil, fmt.Errorf("foreman %s: uplink: %w", opts.Name, err)
	}
	f.link = link
	return f, nil
}

// LocalAddr is the shard-local manager address workers dial.
func (f *Foreman) LocalAddr() string { return f.local.Addr() }

// Local exposes the shard's manager for tests and metric scrapes.
func (f *Foreman) Local() *vine.Manager { return f.local }

// Name reports the shard name the root sees.
func (f *Foreman) Name() string { return f.name }

// Counts reports leases accepted and completions reported so far.
func (f *Foreman) Counts() (leased, done int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.leased, f.done
}

// onLease registers each ticket as an external replica, submits the task
// to the local manager (shared submission dedupes a straggler re-lease of
// a spec already running here), and collects the completion
// asynchronously.
func (f *Foreman) onLease(leases []vine.LeasedTask) {
	for _, lt := range leases {
		lt := lt
		for _, tk := range lt.Tickets {
			f.local.AddExternalReplica(tk.CacheName, tk.Size, tk.Addr)
		}
		h, _, err := f.local.SubmitShared(lt.Task)
		if err != nil {
			f.finish(vine.LeaseResult{TaskID: lt.TaskID, Err: err.Error()})
			continue
		}
		// The shard derives output cachenames from the same content hash the
		// root used; a mismatch means the lease decoded into a different
		// definition and its outputs would be orphans.
		bad := false
		for name, want := range lt.Outputs {
			if got, ok := h.Output(name); !ok || got != want {
				f.finish(vine.LeaseResult{TaskID: lt.TaskID,
					Err: fmt.Sprintf("foreman: output %s cachename mismatch (%s != %s)", name, got, want)})
				bad = true
				break
			}
		}
		if bad {
			continue
		}
		f.mu.Lock()
		f.leased++
		f.backlog++
		f.mu.Unlock()
		f.wg.Add(1)
		go f.collect(lt, h)
	}
}

// collect waits out one lease and folds it into the next report.
func (f *Foreman) collect(lt vine.LeasedTask, h *vine.TaskHandle) {
	defer f.wg.Done()
	select {
	case <-h.Done():
	case <-f.stopC:
		return
	}
	res := vine.LeaseResult{
		TaskID:     lt.TaskID,
		ExecNanos:  h.ExecTime().Nanoseconds(),
		SetupNanos: h.SetupTime().Nanoseconds(),
	}
	if err := h.Err(); err != nil {
		res.Err = err.Error()
		// Name the ticketed sources that turned out dead or corrupt, so the
		// root purges its replica table and re-runs producers — the lineage
		// ladder climbing across the shard boundary.
		for _, tk := range lt.Tickets {
			quarantined := false
			for _, bad := range f.local.ExternalQuarantined(tk.CacheName) {
				if bad == tk.Addr {
					quarantined = true
					break
				}
			}
			if quarantined {
				res.Lost = append(res.Lost, vine.LostReplica{CacheName: string(tk.CacheName), Addr: tk.Addr, Corrupt: true})
			} else if !f.local.HasSource(tk.CacheName) {
				res.Lost = append(res.Lost, vine.LostReplica{CacheName: string(tk.CacheName), Addr: tk.Addr})
			}
		}
	} else {
		res.OK = true
		res.OutputSizes = make(map[string]int64, len(lt.Outputs))
		res.OutputAddrs = make(map[string]string, len(lt.Outputs))
		for _, cn := range lt.Outputs {
			if addr, size, ok := f.local.ReplicaInfo(cn); ok {
				res.OutputSizes[string(cn)] = size
				res.OutputAddrs[string(cn)] = addr
			}
		}
		// Ticketed inputs the shard now caches are replicas the root can
		// ticket to other shards — report their local addresses too.
		for _, tk := range lt.Tickets {
			if addr, size, ok := f.local.ReplicaInfo(tk.CacheName); ok {
				if res.InputAddrs == nil {
					res.InputAddrs = make(map[string]string)
					res.InputSizes = make(map[string]int64)
				}
				res.InputAddrs[string(tk.CacheName)] = addr
				res.InputSizes[string(tk.CacheName)] = size
			}
		}
	}
	f.finish(res)
}

// finish folds one lease outcome into the next report. The first
// completion arms a one-shot microbatch timer — the rule the root applies
// to leases going down — so a flood coalesces into a few report frames
// while a lone completion reaches the root within vine.MicrobatchDelay.
func (f *Foreman) finish(res vine.LeaseResult) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.stopped {
		return
	}
	f.results = append(f.results, res)
	f.done++
	if f.backlog > 0 {
		f.backlog--
	}
	if f.flushT == nil {
		f.wg.Add(1)
		f.flushT = time.AfterFunc(vine.MicrobatchDelay, f.flushReport)
	}
}

// flushReport is the microbatch timer body: ship every result gathered
// so far with the current backlog in one report. It sends under f.mu, so
// once shutdown has marked the shard stopped no report can race out.
func (f *Foreman) flushReport() {
	defer f.wg.Done()
	f.mu.Lock()
	defer f.mu.Unlock()
	f.flushT = nil
	if f.stopped {
		return
	}
	f.link.Report(f.results, f.backlog)
	f.results = nil
}

// onUnlink mirrors a cluster-wide unlink into the shard: the local
// manager unlinks the file from its own workers and forgets its external
// sources, so quarantined bytes cannot resurface from this shard.
func (f *Foreman) onUnlink(cn vine.CacheName) {
	f.local.Unlink(cn)
}

func (f *Foreman) onKill() {
	go f.Stop()
}

// Stop shuts the shard down in an orderly way: uplink first (so the root
// immediately re-leases this shard's in-flight work elsewhere), then the
// pool, then the local manager.
func (f *Foreman) Stop() {
	f.shutdown(false)
}

// Crash kills the shard abruptly — uplink torn first so no completion
// races out, then the local manager crashed mid-flight. The root sees a
// dead foreman: leases requeue, shard replicas vanish, siblings take
// over. For chaos tests.
func (f *Foreman) Crash() {
	f.shutdown(true)
}

func (f *Foreman) shutdown(crash bool) {
	f.mu.Lock()
	if f.stopped {
		f.mu.Unlock()
		return
	}
	f.stopped = true
	close(f.stopC)
	if f.flushT != nil && f.flushT.Stop() {
		f.flushT = nil
		f.wg.Done()
	}
	f.mu.Unlock()
	f.link.Close()
	if f.scaler != nil && !crash {
		f.scaler.Stop()
	}
	if crash {
		f.local.Crash()
	} else {
		f.local.Stop()
	}
	f.wg.Wait()
}
