package vine

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"hepvine/internal/obs"
	"hepvine/internal/params"
	"hepvine/internal/sched"
)

// Foreman is one shard of a federated cluster (see federation.go for the
// root side). It owns a full local Manager — its own worker pool, replica
// table, scheduler, and (optionally) journal — and an uplink to the root
// over the ordinary vine protocol. The root leases task batches downward;
// the foreman runs them through its local manager exactly as a flat
// cluster would and reports aggregated completions, replica addresses,
// and backlog upward.
//
// Cross-shard inputs arrive as peer-transfer tickets: the foreman
// registers each ticket's source as an external replica, so the bytes
// flow worker-to-worker without touching the root's NIC. Content-addressed
// output names make re-execution after any shard failure bit-identical,
// which is what lets the recovery ladder climb across shard boundaries.
type Foreman struct {
	name  string
	cores int
	mem   int64
	local *Manager

	mu sync.Mutex
	// link is the uplink to the root (guarded by mu), redialed through
	// the WithManagers fallbacks within the WithReconnect budget.
	link redialer
	// results are finished leases waiting for the next report; flushT is
	// the pending one-shot report microbatch timer (see finish), nil when
	// none is armed.
	results []leaseDoneWire
	flushT  *time.Timer
	backlog int
	leased  int
	done    int
	stopped bool
	stopC   chan struct{}
	wg      sync.WaitGroup
}

// NewForeman starts a shard under the root manager at rootAddr: local
// manager first (so the registration's inventory and advertised capacity
// are real), then the uplink. WithName names the shard (default
// "foreman"); WithCores and WithMemory advertise its aggregate capacity,
// which the root reserves against like worker capacity, so they throttle
// how far ahead it leases; WithManagers lists fallback root addresses
// (an HA deployment's standbys) and WithReconnect sets the uplink's
// redial budget. Every other option configures the local manager.
func NewForeman(rootAddr string, options ...Option) (*Foreman, error) {
	c := buildConfig(options)
	name := c.wrk.Name
	if name == "" {
		name = "foreman"
	}
	local, err := NewManager(options...)
	if err != nil {
		return nil, fmt.Errorf("foreman %s: local manager: %w", name, err)
	}
	f := &Foreman{
		name:  name,
		cores: c.wrk.Cores,
		mem:   c.wrk.Memory,
		local: local,
		link:  c.redialer(rootAddr, name+"/uplink", "root"),
		stopC: make(chan struct{}),
	}
	f.link.name = name
	if err := f.link.dial(); err != nil {
		local.Stop()
		return nil, fmt.Errorf("foreman %s: uplink: %w", name, err)
	}
	f.link.conn.send(f.hello())
	go f.readLoop(f.link.conn)
	return f, nil
}

// LocalAddr is the shard-local manager address workers dial.
func (f *Foreman) LocalAddr() string { return f.local.Addr() }

// Local exposes the shard's manager for tests and metric scrapes.
func (f *Foreman) Local() *Manager { return f.local }

// Name reports the shard name the root sees.
func (f *Foreman) Name() string { return f.name }

// Counts reports leases accepted and completions reported so far.
func (f *Foreman) Counts() (leased, done int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.leased, f.done
}

// hello builds the registration frame: aggregate shard capacity, not a
// single node's, plus the shard's current replica inventory.
func (f *Foreman) hello() *message {
	return &message{Type: msgHello, Hello: &helloMsg{
		Name:      f.name,
		Cores:     f.cores,
		Memory:    f.mem,
		Foreman:   true,
		Inventory: f.local.replicaInventory(),
	}}
}

func (f *Foreman) readLoop(cc *conn) {
	for {
		msg, err := cc.recv()
		if err != nil {
			if !f.link.reconnect(&f.mu, &f.stopped, f.stopC, cc, func(nc *conn) {
				f.link.rec.Emit(obs.Event{Type: obs.EvWorkerJoin, Worker: f.name, Detail: "foreman uplink reconnected"})
				nc.send(f.hello())
			}) {
				return
			}
			f.mu.Lock()
			cc = f.link.conn
			f.mu.Unlock()
			continue
		}
		switch msg.Type {
		case msgLease:
			if msg.Lease != nil {
				f.onLease(msg.Lease.Leases)
			}
		case msgUnlink:
			// A cluster-wide unlink: the local manager unlinks the file from
			// its own workers and forgets its external sources, so
			// quarantined bytes cannot resurface from this shard.
			if msg.Unlink != nil {
				f.local.Unlink(CacheName(msg.Unlink.CacheName))
			}
		case msgPing:
			cc.send(&message{Type: msgPong})
		case msgKill:
			go f.Stop()
			return
		}
	}
}

// task rebuilds the leased task spec. It hashes to the same definition as
// the root's, so the shard's local manager derives identical
// content-addressed output cachenames — the invariant that makes
// cross-shard lineage recovery bit-identical.
func (e *leaseEntryWire) task() Task {
	t := Task{
		Mode:    TaskMode(e.Mode),
		Library: e.Library,
		Func:    e.Func,
		Args:    e.Args,
		Cores:   e.Cores,
		Memory:  e.Memory,
	}
	for _, in := range e.Inputs {
		t.Inputs = append(t.Inputs, FileRef{Name: in.Name, CacheName: CacheName(in.CacheName)})
	}
	for _, o := range e.Outputs {
		t.Outputs = append(t.Outputs, o.Name)
	}
	return t
}

// onLease registers each ticket as an external replica, submits the task
// to the local manager (shared submission dedupes a straggler re-lease of
// a spec already running here), and collects the completion
// asynchronously.
func (f *Foreman) onLease(leases []leaseEntryWire) {
	for i := range leases {
		e := &leases[i]
		for _, tk := range e.Tickets {
			f.local.addExternalReplica(CacheName(tk.CacheName), tk.Size, tk.Addr)
		}
		h, _, err := f.local.SubmitShared(e.task())
		if err != nil {
			f.finish(leaseDoneWire{TaskID: e.TaskID, Error: err.Error()})
			continue
		}
		// A mismatch with the root's output cachenames means the lease
		// decoded into a different definition and its outputs would be
		// orphans.
		bad := false
		for _, o := range e.Outputs {
			if got, ok := h.Output(o.Name); !ok || string(got) != o.CacheName {
				f.finish(leaseDoneWire{TaskID: e.TaskID,
					Error: fmt.Sprintf("foreman: output %s cachename mismatch (%s != %s)", o.Name, got, o.CacheName)})
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
		go f.collect(e, h)
	}
}

// collect waits out one lease and folds its report entry, built under one
// acquisition of the local manager's lock, into the next report. A
// failure names the ticketed sources that turned out dead or corrupt, so
// the root purges its replica table and re-runs producers — the lineage
// ladder climbing across the shard boundary. A success names the
// shard-local address serving each output, and each ticketed input the
// shard now caches: replicas the root can ticket to other shards.
func (f *Foreman) collect(e *leaseEntryWire, h *TaskHandle) {
	defer f.wg.Done()
	select {
	case <-h.Done():
	case <-f.stopC:
		return
	}
	d := leaseDoneWire{
		TaskID:     e.TaskID,
		ExecNanos:  h.ExecTime().Nanoseconds(),
		SetupNanos: h.SetupTime().Nanoseconds(),
	}
	err := h.Err()
	m := f.local
	m.mu.Lock()
	if err != nil {
		d.Error = err.Error()
		for _, tk := range e.Tickets {
			cn := CacheName(tk.CacheName)
			if fs := m.files[cn]; fs != nil && slices.Contains(fs.extBad, tk.Addr) {
				d.Lost = append(d.Lost, lostReplicaWire{CacheName: tk.CacheName, Addr: tk.Addr, Corrupt: true})
			} else if !m.hasSourceLocked(cn) {
				d.Lost = append(d.Lost, lostReplicaWire{CacheName: tk.CacheName, Addr: tk.Addr})
			}
		}
	} else {
		d.OK = true
		d.OutputSizes = make(map[string]int64, len(e.Outputs))
		d.OutputAddrs = make(map[string]string, len(e.Outputs))
		for _, o := range e.Outputs {
			if addr, size, ok := m.replicaInfoLocked(CacheName(o.CacheName)); ok {
				d.OutputSizes[o.CacheName] = size
				d.OutputAddrs[o.CacheName] = addr
			}
		}
		for _, tk := range e.Tickets {
			if addr, size, ok := m.replicaInfoLocked(CacheName(tk.CacheName)); ok {
				if d.InputAddrs == nil {
					d.InputAddrs = make(map[string]string)
					d.InputSizes = make(map[string]int64)
				}
				d.InputAddrs[tk.CacheName] = addr
				d.InputSizes[tk.CacheName] = size
			}
		}
	}
	m.mu.Unlock()
	f.finish(d)
}

// finish folds one lease outcome into the next report. The first
// completion arms a one-shot microbatch timer — the rule the root applies
// to leases going down — so a flood coalesces into a few report frames
// while a lone completion reaches the root within microbatchDelay.
func (f *Foreman) finish(d leaseDoneWire) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.stopped {
		return
	}
	f.results = append(f.results, d)
	f.done++
	if f.backlog > 0 {
		f.backlog--
	}
	if f.flushT == nil {
		f.wg.Add(1)
		f.flushT = time.AfterFunc(microbatchDelay, f.flushReport)
	}
}

// flushReport is the microbatch timer body: ship every result gathered
// so far with the current backlog in one report. It sends under f.mu, so
// once shutdown has marked the shard stopped no report can race out. A
// send on a dead uplink is dropped; the redialed registration re-offers
// the output replicas through the inventory instead.
func (f *Foreman) flushReport() {
	defer f.wg.Done()
	f.mu.Lock()
	defer f.mu.Unlock()
	f.flushT = nil
	if f.stopped {
		return
	}
	f.link.conn.send(&message{Type: msgReport, Report: &foremanReportMsg{Done: f.results, Backlog: f.backlog}})
	f.results = nil
}

// Stop shuts the shard down in an orderly way: uplink first (so the root
// immediately re-leases this shard's in-flight work elsewhere), then the
// local manager.
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
	cc := f.link.conn
	f.mu.Unlock()
	// Closing without notice is, from the root's side, a foreman death —
	// which is the point.
	cc.close()
	if crash {
		f.local.Crash()
	} else {
		f.local.Stop()
	}
	f.wg.Wait()
}

// LocalConfig sizes an in-process federation: one root manager, Foremen
// shards, and WorkersPerForeman workers in each shard. Zero values take
// the pinned defaults.
type LocalConfig struct {
	Foremen           int
	WorkersPerForeman int
	CoresPerWorker    int
	// LeaseAhead multiplies the advertised shard capacity, letting the
	// root lease ahead of the real core count so each shard keeps a local
	// queue and its cores never sit idle for a lease round trip to the
	// root. 0/1 advertises the exact core count (strictest placement;
	// cross-shard spillover happens as soon as real cores fill).
	LeaseAhead int
	// RootOptions extend the root manager (a federate scheduling policy is
	// installed by default; later options win, so callers can override).
	RootOptions []Option
	// LocalOptions extends every foreman (see NewForeman: uplink options
	// such as WithReconnect, the rest for the shard's local manager).
	LocalOptions func(shard int) []Option
	// WorkerOptions extends every worker. Workers are always given the
	// sibling shard addresses as fallback managers plus a redial budget,
	// so they re-home when their foreman dies.
	WorkerOptions func(shard, n int) []Option
}

// LocalFederation is a loopback shard tree for tests, benchmarks, and
// vinerun: every tier in one process, all traffic over real TCP.
type LocalFederation struct {
	Root    *Manager
	Foremen []*Foreman
	Workers [][]*Worker
}

// NewLocalFederation builds the tree bottom-tier-last: root, then every
// foreman (so each registers its uplink), then the workers — each dialing
// its own shard first with every sibling shard as a re-home fallback.
func NewLocalFederation(cfg LocalConfig) (*LocalFederation, error) {
	if cfg.Foremen <= 0 {
		cfg.Foremen = params.DefaultForemanFanout
	}
	if cfg.WorkersPerForeman <= 0 {
		cfg.WorkersPerForeman = 2
	}
	if cfg.CoresPerWorker <= 0 {
		cfg.CoresPerWorker = 2
	}
	fed := &LocalFederation{}
	root, err := NewManager(append([]Option{
		WithName("root"),
		WithScheduler(sched.Federate()),
	}, cfg.RootOptions...)...)
	if err != nil {
		return nil, fmt.Errorf("federation: root: %w", err)
	}
	fed.Root = root
	shardCores := cfg.WorkersPerForeman * cfg.CoresPerWorker
	if cfg.LeaseAhead > 1 {
		shardCores *= cfg.LeaseAhead
	}
	for i := 0; i < cfg.Foremen; i++ {
		opts := []Option{WithName(fmt.Sprintf("shard-%d", i)), WithCores(shardCores)}
		if cfg.LocalOptions != nil {
			opts = append(opts, cfg.LocalOptions(i)...)
		}
		fm, err := NewForeman(root.Addr(), opts...)
		if err != nil {
			fed.Stop()
			return nil, err
		}
		fed.Foremen = append(fed.Foremen, fm)
	}
	for i, fm := range fed.Foremen {
		var ws []*Worker
		// Sibling shards, in rotation starting after this one, are the
		// re-home targets when this foreman dies.
		var siblings []string
		for k := 1; k < len(fed.Foremen); k++ {
			siblings = append(siblings, fed.Foremen[(i+k)%len(fed.Foremen)].LocalAddr())
		}
		for n := 0; n < cfg.WorkersPerForeman; n++ {
			opts := []Option{
				WithName(fmt.Sprintf("shard-%d-w%d", i, n)),
				WithCores(cfg.CoresPerWorker),
				WithManagers(siblings...),
				WithReconnect(40, 25*time.Millisecond),
			}
			if cfg.WorkerOptions != nil {
				opts = append(opts, cfg.WorkerOptions(i, n)...)
			}
			w, err := NewWorker(fm.LocalAddr(), opts...)
			if err != nil {
				fed.Stop()
				return nil, fmt.Errorf("federation: shard %d worker %d: %w", i, n, err)
			}
			ws = append(ws, w)
		}
		fed.Workers = append(fed.Workers, ws)
	}
	return fed, nil
}

// Stop tears the federation down leaves-first.
func (f *LocalFederation) Stop() {
	for _, ws := range f.Workers {
		for _, w := range ws {
			if w != nil {
				w.Stop()
			}
		}
	}
	for _, fm := range f.Foremen {
		if fm != nil {
			fm.Stop()
		}
	}
	if f.Root != nil {
		f.Root.Stop()
	}
}
