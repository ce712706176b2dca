package vine

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"hepvine/internal/obs"
)

// Worker is the node-side agent: it owns a content-addressed on-disk cache,
// executes dispatched tasks and function calls, fetches inputs from peers
// when told to, and serves its cache to other workers. One Worker manages a
// whole node (all its cores) with a single shared cache — the structural
// property §V.B credits for TaskVine beating one-process-per-core
// Dask.Distributed deployments.
type Worker struct {
	Name  string
	Cores int

	dir       string
	diskLimit int64

	mu        sync.Mutex
	cache     map[CacheName]int64 // name → size
	cacheUsed int64
	// LRU eviction state: under disk pressure the worker drops the
	// least-recently-used unpinned entries and notifies the manager, so
	// a full cache degrades to re-staging instead of task failure. Files
	// are pinned while a task uses them as inputs or holds them as
	// not-yet-reported outputs.
	pins    map[CacheName]int
	lastUse map[CacheName]uint64
	useSeq  uint64
	libs    map[string]*libraryInstance
	// fetching serializes inbound transfers per cachename: a duplicate
	// put_url for a name already being fetched waits for the in-flight
	// fetch instead of racing a second writer onto the same cache path.
	fetching map[CacheName]chan struct{}
	stopped  bool

	// Elasticity: preemptible rides the registration hello into the
	// scheduler; draining is set by Drain (provider preemption notice or
	// SIGTERM) and makes the wind-down idempotent.
	preemptible bool
	draining    bool

	// slots enforces the advertised core count locally: even if a manager
	// over-dispatches, at most Cores tasks execute concurrently.
	slots chan struct{}

	ts    *transferServer
	doneC chan struct{}

	// Persistent cache (see worker_persist.go): entries survive process
	// restarts under a stable Dir, tracked by a CRC-indexed sidecar.
	// orphans maps scrubbed-but-unclaimed entries to their GC deadline; a
	// manager ack or any use rescues an entry from the orphan set.
	persist   bool
	orphanTTL time.Duration
	orphans   map[CacheName]time.Time
	idxMu     sync.Mutex
	idxF      *os.File

	// link is the control connection to the manager (guarded by mu;
	// swapped on reconnect — use curConn/sendMsg). On connection error or
	// manager silence it re-dials through the primary and any WithManagers
	// fallbacks (a hot standby's takeover address) and re-registers with
	// the current cache inventory.
	link          redialer
	memory        int64
	takeoverEpoch uint64 // highest takeover epoch acknowledged

	// Liveness: lastMgr is bumped on every control-channel receive; the
	// monitor goroutine declares the manager lost after hbTimeout of
	// silence and drains. The manager's periodic pings guarantee traffic
	// on an otherwise idle link.
	nc         netConfig
	label      string // fault-matching prefix: worker name or "worker"
	hbInterval time.Duration
	hbTimeout  time.Duration
	lastMgr    time.Time

	rec *obs.Recorder
	reg *obs.Registry
	met workerMetrics
}

// workerMetrics holds the worker's registry-backed instruments.
type workerMetrics struct {
	tasksRun       *obs.Counter
	functionCalls  *obs.Counter
	transfersIn    *obs.Counter
	bytesIn        *obs.Counter
	librarySetups  *obs.Counter
	cacheEvictions *obs.Counter
	scrubDrops     *obs.Counter
	orphanGCs      *obs.Counter
	reconnects     *obs.Counter
	takeovers      *obs.Counter
	cacheBytes     *obs.Gauge
	cacheHighWater *obs.Gauge
}

func newWorkerMetrics(reg *obs.Registry) workerMetrics {
	return workerMetrics{
		tasksRun:       reg.Counter("vine_worker_tasks_run_total"),
		functionCalls:  reg.Counter("vine_worker_function_calls_total"),
		transfersIn:    reg.Counter("vine_worker_transfers_in_total"),
		bytesIn:        reg.Counter("vine_worker_bytes_in_total"),
		librarySetups:  reg.Counter("vine_worker_library_setups_total"),
		cacheEvictions: reg.Counter("vine_worker_cache_evictions_total"),
		scrubDrops:     reg.Counter("vine_worker_scrub_drops_total"),
		orphanGCs:      reg.Counter("vine_worker_orphan_gcs_total"),
		reconnects:     reg.Counter("vine_worker_reconnects_total"),
		takeovers:      reg.Counter("vine_worker_takeovers_total"),
		cacheBytes:     reg.Gauge("vine_worker_cache_bytes"),
		cacheHighWater: reg.Gauge("vine_worker_cache_high_water_bytes"),
	}
}

// workerOptions is the worker half of the option vocabulary.
type workerOptions struct {
	// Name identifies the worker to the manager (default: autogenerated).
	Name string
	// Cores advertises execution slots (default 1).
	Cores int
	// Memory advertises RAM in bytes (0 = effectively unlimited).
	Memory int64
	// Dir is the cache directory (default: a fresh temp dir).
	Dir string
	// DiskLimit caps cache bytes; 0 = unlimited. Exceeding it fails the
	// offending transfer or task, the live analogue of the worker-storage
	// overflows in Fig. 11a.
	DiskLimit int64
	// Persist keeps the cache directory across worker restarts: entries
	// are tracked in a CRC-32C sidecar index, scrubbed on startup, and the
	// survivors reported to the manager in the registration handshake so
	// completed work is never re-staged. Requires an explicit Dir.
	Persist bool
	// OrphanTTL bounds how long a scrubbed cache entry may sit unclaimed
	// by any manager before the worker garbage-collects it (persistent
	// caches only). 0 = default (10 min); negative disables the GC.
	OrphanTTL time.Duration
	// ReconnectAttempts is how many times a worker re-dials the manager
	// after a connection error or heartbeat silence before draining.
	// 0 disables reconnection (the pre-journal behavior).
	ReconnectAttempts int
	// ReconnectBackoff is the delay before each redial attempt (default
	// 50ms).
	ReconnectBackoff time.Duration
	// Managers lists fallback manager addresses tried (after the primary
	// passed to NewWorker) on initial dial and on every redial — the
	// hot-standby address list.
	Managers []string
	// Preemptible advertises that this worker runs on an opportunistic
	// slot and may be preempted: the scheduler spreads replicas of hot
	// files away from it and a graceful drain is expected at any time.
	Preemptible bool
}

// NewWorker connects a worker to the manager at addr and starts
// serving, configured by functional options (WithName, WithCores,
// WithDiskLimit, WithRecorder, ...). Manager-only options are ignored.
func NewWorker(addr string, options ...Option) (*Worker, error) {
	c := buildConfig(options)
	opts := c.wrk
	if opts.Cores <= 0 {
		opts.Cores = 1
	}
	if opts.Persist && opts.Dir == "" {
		return nil, fmt.Errorf("vine: persistent cache requires an explicit cache dir")
	}
	dir := opts.Dir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "vineworker-")
		if err != nil {
			return nil, err
		}
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	orphanTTL := opts.OrphanTTL
	if orphanTTL == 0 {
		orphanTTL = defaultOrphanTTL
	}
	reg := obs.NewRegistry()
	label := opts.Name
	if label == "" {
		label = "worker"
	}
	w := &Worker{
		Name:        opts.Name,
		Cores:       opts.Cores,
		dir:         dir,
		diskLimit:   opts.DiskLimit,
		cache:       make(map[CacheName]int64),
		pins:        make(map[CacheName]int),
		fetching:    make(map[CacheName]chan struct{}),
		lastUse:     make(map[CacheName]uint64),
		libs:        make(map[string]*libraryInstance),
		doneC:       make(chan struct{}),
		slots:       make(chan struct{}, opts.Cores),
		nc:          c.netConfig(),
		label:       label,
		hbInterval:  c.hbInterval,
		hbTimeout:   c.hbTimeout,
		lastMgr:     time.Now(),
		rec:         c.rec,
		reg:         reg,
		met:         newWorkerMetrics(reg),
		persist:     opts.Persist,
		orphanTTL:   orphanTTL,
		orphans:     make(map[CacheName]time.Time),
		link:        c.redialer(addr, label+"/control", "manager"),
		memory:      opts.Memory,
		preemptible: opts.Preemptible,
	}
	var inventory []inventoryEntry
	if w.persist {
		// Scrub before dialing: the hello must report only entries whose
		// bytes verified against the index, or a reconnecting manager would
		// re-learn replicas that turn out to be rotten.
		inv, err := w.scrubCache()
		if err != nil {
			return nil, fmt.Errorf("vine: scrubbing persistent cache: %w", err)
		}
		inventory = inv
		if err := w.openIndex(); err != nil {
			return nil, fmt.Errorf("vine: opening cache index: %w", err)
		}
	}
	ts, err := newTransferServer(w, w.nc, label+"/transfer")
	if err != nil {
		w.closeIndex()
		return nil, err
	}
	w.ts = ts
	if err := w.link.dial(); err != nil {
		ts.close()
		w.closeIndex()
		return nil, fmt.Errorf("vine: worker connecting to manager: %w", err)
	}
	if w.Name == "" {
		w.Name = w.link.conn.c.LocalAddr().String()
	}
	w.link.name = w.Name
	w.link.conn.send(w.hello(inventory))
	go w.readLoop()
	if w.hbInterval > 0 {
		go w.monitorManager()
	}
	if w.persist && w.orphanTTL > 0 {
		go w.orphanGC()
	}
	return w, nil
}

// hello builds the registration frame carrying inv, the cache inventory.
func (w *Worker) hello(inv []inventoryEntry) *message {
	return &message{Type: msgHello, Hello: &helloMsg{
		Name:         w.Name,
		Cores:        w.Cores,
		Memory:       w.memory,
		TransferAddr: w.ts.Addr(),
		DiskLimit:    w.diskLimit,
		Preemptible:  w.preemptible,
		Inventory:    inv,
	}}
}

// monitorManager watches for control-channel silence. The manager pings
// every heartbeat interval, so a healthy link is never quiet for long;
// hbTimeout of silence means the manager (or the path to it) is gone even
// if the TCP session still looks ESTABLISHED. The worker then drains:
// running tasks get a short grace period to finish before shutdown.
func (w *Worker) monitorManager() {
	tick := w.hbInterval / 4
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	if tick > 500*time.Millisecond {
		tick = 500 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-w.doneC:
			return
		case <-t.C:
		}
		// Snapshot silence, the current connection, and redial state under
		// ONE lock acquisition. Reading them separately raced an in-flight
		// redial two ways: the monitor could pass a freshly-swapped healthy
		// connection to reconnect (which would close it and burn the whole
		// redial budget against a live manager), and it could drain while a
		// redial's backoff still had attempts left. The in-flight redial
		// owns the drain decision — drain only fires once a reconnect call
		// reports the budget exhausted.
		w.mu.Lock()
		silence := time.Since(w.lastMgr)
		stopped := w.stopped
		cc := w.link.conn
		redialing := w.link.redialC != nil
		w.mu.Unlock()
		if stopped {
			return
		}
		if redialing {
			continue
		}
		if silence > w.hbTimeout {
			action := "draining"
			if w.link.attempts > 0 {
				action = "reconnecting"
			}
			w.rec.Emit(obs.Event{Type: obs.EvHeartbeatMiss, Worker: w.Name,
				Detail: fmt.Sprintf("manager silent for %v (timeout %v); %s", silence.Round(time.Millisecond), w.hbTimeout, action)})
			// cc was captured atomically with the silence reading: if a
			// redial swapped the connection since, reconnect sees the
			// mismatch and reports success without touching the new link.
			if w.reconnect(cc) {
				continue
			}
			w.drain()
			return
		}
	}
}

// drain waits (briefly) for in-flight tasks to release their core slots,
// then stops the worker. Results can no longer reach the manager, but
// finishing the executions keeps their side effects (cache writes)
// consistent for post-mortem inspection.
func (w *Worker) drain() {
	grace := w.hbTimeout
	if grace > 2*time.Second {
		grace = 2 * time.Second
	}
	deadline := time.After(grace)
	held := 0
acquire:
	for held < cap(w.slots) {
		select {
		case w.slots <- struct{}{}:
			held++
		case <-deadline:
			break acquire
		case <-w.doneC:
			return
		}
	}
	w.Stop()
}

// Drain begins a graceful wind-down: the worker tells the manager it has
// grace of wall clock left (a provider preemption notice or SIGTERM),
// keeps executing what it already holds, keeps serving peer transfers,
// and exits when the manager releases it with drain_done — or when the
// grace window runs out, whichever comes first. A blown window is an
// abrupt Stop: the manager recovers whatever was still on this worker
// through the usual retry/lineage ladder. grace <= 0 uses the default
// (params.DefaultDrainGrace). Idempotent; a no-op after Stop.
func (w *Worker) Drain(grace time.Duration) {
	if grace <= 0 {
		grace = defaultDrainGrace
	}
	w.mu.Lock()
	if w.stopped || w.draining {
		w.mu.Unlock()
		return
	}
	w.draining = true
	w.mu.Unlock()
	w.rec.Emit(obs.Event{Type: obs.EvWorkerPreempt, Worker: w.Name, Dur: grace,
		Detail: "preemption notice: draining"})
	w.sendMsg(&message{Type: msgDraining, Draining: &drainingMsg{GraceNanos: grace.Nanoseconds()}})
	go func() {
		t := time.NewTimer(grace)
		defer t.Stop()
		select {
		case <-w.doneC:
		case <-t.C:
			w.rec.Emit(obs.Event{Type: obs.EvWorkerDrain, Worker: w.Name,
				Detail: "grace window blown; stopping with work in flight"})
			w.Stop()
		}
	}()
}

// Draining reports whether the worker is inside a preemption grace window.
func (w *Worker) Draining() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.draining
}

// Stop disconnects the worker abruptly — from the manager's perspective,
// a preemption. An ephemeral cache directory is removed; a persistent one
// survives for the next incarnation to scrub and re-offer.
func (w *Worker) Stop() {
	w.mu.Lock()
	if w.stopped {
		w.mu.Unlock()
		return
	}
	w.stopped = true
	cc := w.link.conn
	w.mu.Unlock()
	cc.close()
	w.ts.close()
	close(w.doneC)
	w.closeIndex()
	if !w.persist {
		os.RemoveAll(w.dir)
	}
}

// curConn reports the current control connection (swapped on reconnect).
func (w *Worker) curConn() *conn {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.link.conn
}

// sendMsg enqueues a message on whatever control connection is current, so
// senders racing a reconnect route to the new link instead of a dead one.
func (w *Worker) sendMsg(m *message) {
	if cc := w.curConn(); cc != nil {
		cc.send(m)
	}
}

// onTakeover acknowledges a manager's failover announcement. Epochs are
// fencing tokens: a notice at or below the highest epoch already seen is
// from a stale incarnation and ignored.
func (w *Worker) onTakeover(t *takeoverMsg) {
	w.mu.Lock()
	if t.Epoch <= w.takeoverEpoch {
		w.mu.Unlock()
		return
	}
	w.takeoverEpoch = t.Epoch
	w.mu.Unlock()
	w.met.takeovers.Inc()
	w.rec.Emit(obs.Event{Type: obs.EvTakeover, Worker: w.Name, Src: t.Holder,
		Attempt: int(t.Epoch), Detail: "registered with failover manager"})
}

// Takeovers reports how many manager failovers this worker rode through
// (distinct takeover epochs acknowledged).
func (w *Worker) Takeovers() int { return int(w.met.takeovers.Value()) }

// Done is closed when the worker shuts down.
func (w *Worker) Done() <-chan struct{} { return w.doneC }

// TransferAddr reports the worker's data-plane address.
func (w *Worker) TransferAddr() string { return w.ts.Addr() }

// CacheUsage reports current cache bytes.
func (w *Worker) CacheUsage() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.cacheUsed
}

// CacheNames lists cached entries, sorted, for tests.
func (w *Worker) CacheNames() []CacheName {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]CacheName, 0, len(w.cache))
	for n := range w.cache {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Stats snapshots worker counters into the shared obs.Snapshot
// vocabulary.
func (w *Worker) Stats() obs.Snapshot {
	return obs.Snapshot{
		TasksRun:       int(w.met.tasksRun.Value()),
		FunctionCalls:  int(w.met.functionCalls.Value()),
		TransfersIn:    int(w.met.transfersIn.Value()),
		BytesIn:        w.met.bytesIn.Value(),
		LibrarySetups:  int(w.met.librarySetups.Value()),
		CacheEvictions: int(w.met.cacheEvictions.Value()),
		CacheHighWater: w.met.cacheHighWater.Value(),
	}
}

// Metrics exposes the worker's metrics registry.
func (w *Worker) Metrics() *obs.Registry { return w.reg }

// LibrarySetupCount reports how many times the named library's Setup ran on
// this worker (hoisting instrumentation).
func (w *Worker) LibrarySetupCount(name string) int {
	w.mu.Lock()
	li := w.libs[name]
	w.mu.Unlock()
	if li == nil {
		return 0
	}
	return li.SetupCount()
}

// openCache implements transferSource.
func (w *Worker) openCache(name CacheName) (io.ReadCloser, int64, error) {
	w.mu.Lock()
	size, ok := w.cache[name]
	if ok {
		w.touchLocked(name)
	}
	w.mu.Unlock()
	if !ok {
		return nil, 0, fmt.Errorf("not cached: %s", name)
	}
	f, err := os.Open(w.cachePath(name))
	if err != nil {
		return nil, 0, err
	}
	return f, size, nil
}

func (w *Worker) cachePath(name CacheName) string {
	return filepath.Join(w.dir, cachePathSafe(name))
}

// touchLocked bumps a file's LRU clock. Any use also rescues the entry
// from the orphan set: a file a task or transfer touched is evidently
// still wanted.
func (w *Worker) touchLocked(name CacheName) {
	w.useSeq++
	w.lastUse[name] = w.useSeq
	delete(w.orphans, name)
}

// evictedFile is one LRU victim pending its off-lock cleanup.
type evictedFile struct {
	name CacheName
	size int64
}

// evictForLocked drops least-recently-used unpinned entries until size
// more bytes fit under the disk limit (or nothing evictable remains).
// Victims leave the cache map immediately; file removal, metrics, and
// the manager notice happen off-lock in finishEvictions.
func (w *Worker) evictForLocked(size int64) []evictedFile {
	var victims []evictedFile
	for w.cacheUsed+size > w.diskLimit {
		var (
			oldest    CacheName
			oldestSeq uint64
			found     bool
		)
		for name := range w.cache {
			if w.pins[name] > 0 {
				continue
			}
			if seq := w.lastUse[name]; !found || seq < oldestSeq {
				oldest, oldestSeq, found = name, seq, true
			}
		}
		if !found {
			break
		}
		sz := w.cache[oldest]
		delete(w.cache, oldest)
		delete(w.lastUse, oldest)
		w.cacheUsed -= sz
		victims = append(victims, evictedFile{name: oldest, size: sz})
	}
	if len(victims) > 0 {
		w.met.cacheBytes.Set(w.cacheUsed)
	}
	return victims
}

// finishEvictions removes victim files from disk and tells the manager,
// outside w.mu. The notice shares the ordered control channel with
// taskDone messages, so an output evicted after its task reported stays
// consistent on the manager.
func (w *Worker) finishEvictions(victims []evictedFile) {
	for _, v := range victims {
		os.Remove(w.cachePath(v.name))
		w.indexRemove(v.name)
		w.met.cacheEvictions.Inc()
		w.rec.Emit(obs.Event{Type: obs.EvCacheEvict, Worker: w.Name, Bytes: v.size, Detail: string(v.name)})
		w.sendMsg(&message{Type: msgEvicted, Evicted: &evictedMsg{CacheName: string(v.name), Size: v.size}})
	}
}

// addToCache registers a file already written at the cache path. Under a
// disk limit, LRU-evicts unpinned entries to make room; only when that
// still cannot fit the file does it fail. pin holds the new entry
// against eviction until unpin — tasks pin their outputs until the
// result is reported. crc is the payload's CRC-32C, recorded in the
// persistent index so a restart can verify the entry.
func (w *Worker) addToCache(name CacheName, size int64, pin bool, crc uint32) error {
	w.mu.Lock()
	if _, dup := w.cache[name]; dup {
		w.touchLocked(name)
		if pin {
			w.pins[name]++
		}
		w.mu.Unlock()
		return nil // idempotent: content-addressed
	}
	var victims []evictedFile
	if w.diskLimit > 0 && w.cacheUsed+size > w.diskLimit {
		victims = w.evictForLocked(size)
		if w.cacheUsed+size > w.diskLimit {
			w.mu.Unlock()
			w.finishEvictions(victims)
			return fmt.Errorf("vine: worker %s cache full: %d + %d > %d", w.Name, w.cacheUsed, size, w.diskLimit)
		}
	}
	w.cache[name] = size
	w.cacheUsed += size
	w.touchLocked(name)
	if pin {
		w.pins[name]++
	}
	w.met.cacheBytes.Set(w.cacheUsed)
	w.met.cacheHighWater.SetMax(w.cacheUsed)
	w.mu.Unlock()
	w.indexAdd(name, size, crc)
	w.finishEvictions(victims)
	return nil
}

// unpin releases one pin on each named file.
func (w *Worker) unpin(names []CacheName) {
	w.mu.Lock()
	for _, name := range names {
		if w.pins[name] > 1 {
			w.pins[name]--
		} else {
			delete(w.pins, name)
		}
	}
	w.mu.Unlock()
}

func (w *Worker) removeFromCache(name CacheName) {
	w.mu.Lock()
	size, ok := w.cache[name]
	if ok {
		delete(w.cache, name)
		delete(w.lastUse, name)
		delete(w.pins, name)
		w.cacheUsed -= size
		w.met.cacheBytes.Set(w.cacheUsed)
	}
	delete(w.orphans, name)
	w.mu.Unlock()
	if ok {
		w.indexRemove(name)
		w.met.cacheEvictions.Inc()
		w.rec.Emit(obs.Event{Type: obs.EvCacheEvict, Worker: w.Name, Bytes: size, Detail: string(name)})
	}
	os.Remove(w.cachePath(name))
}

func (w *Worker) readLoop() {
	for {
		cc := w.curConn()
		m, err := cc.recv()
		if err != nil {
			if w.reconnect(cc) {
				continue
			}
			w.Stop()
			return
		}
		w.mu.Lock()
		w.lastMgr = time.Now()
		w.mu.Unlock()
		switch m.Type {
		case msgPing:
			w.sendMsg(&message{Type: msgPong})
		case msgDispatch:
			if m.Dispatch != nil {
				go w.execute(m.Dispatch)
			}
		case msgPutURL:
			if m.PutURL != nil {
				go w.fetchFile(m.PutURL)
			}
		case msgLibrary:
			if m.Library != nil {
				w.installLibrary(m.Library)
			}
		case msgUnlink:
			if m.Unlink != nil {
				w.removeFromCache(CacheName(m.Unlink.CacheName))
			}
		case msgInventoryAck:
			if m.InventoryAck != nil {
				w.onInventoryAck(m.InventoryAck)
			}
		case msgTakeover:
			if m.Takeover != nil {
				w.onTakeover(m.Takeover)
			}
		case msgDrainDone:
			// The manager has requeued our staged work and offloaded our
			// sole-replica files; nothing of value remains here. Exit
			// cleanly — the ensuing connection error is the manager's
			// (already-discounted) worker-lost signal.
			w.rec.Emit(obs.Event{Type: obs.EvWorkerDrain, Worker: w.Name,
				Detail: "released by manager; exiting"})
			w.Stop()
			return
		case msgKill:
			w.Stop()
			return
		}
	}
}

func (w *Worker) installLibrary(msg *libraryMsg) {
	lib, err := lookupLibrary(msg.Name)
	if err != nil {
		// The manager installed a library this binary doesn't know;
		// tasks using it will fail with a clear error at dispatch.
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, exists := w.libs[msg.Name]; !exists {
		w.libs[msg.Name] = newLibraryInstance(lib, msg.Hoist)
	}
}

func (w *Worker) fetchFile(p *putURLMsg) {
	name := CacheName(p.CacheName)
	report := func(ok bool, size int64, errStr string, corrupt bool) {
		w.sendMsg(&message{Type: msgTransferDone, TransferDone: &transferDoneMsg{
			CacheName: p.CacheName, OK: ok, Size: size, Error: errStr, Corrupt: corrupt,
		}})
	}
	w.mu.Lock()
	for {
		if _, have := w.cache[name]; have {
			w.mu.Unlock()
			report(true, 0, "", false)
			return
		}
		inflight, busy := w.fetching[name]
		if !busy {
			break
		}
		// Another put_url for this name is mid-fetch; wait it out. If it
		// lands the file we report cached, otherwise we fetch from our own
		// source address — a duplicate request may name a different one.
		w.mu.Unlock()
		<-inflight
		w.mu.Lock()
	}
	claim := make(chan struct{})
	w.fetching[name] = claim
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		delete(w.fetching, name)
		w.mu.Unlock()
		close(claim)
	}()
	size, crc, err := w.nc.fetchToFile(p.Addr, name, w.cachePath(name), w.label+"/fetch")
	if err != nil {
		// A checksum mismatch is flagged so the manager quarantines the
		// serving replica instead of re-fetching the same bad bytes.
		report(false, 0, err.Error(), errors.Is(err, ErrCorruptTransfer))
		return
	}
	if err := w.addToCache(name, size, false, crc); err != nil {
		os.Remove(w.cachePath(name))
		report(false, 0, err.Error(), false)
		return
	}
	w.met.transfersIn.Inc()
	w.met.bytesIn.Add(size)
	report(true, size, "", false)
}

// execute runs one dispatched task or function call.
func (w *Worker) execute(d *dispatchMsg) {
	// Local admission control: hold a core slot per requested core for the
	// duration of the execution.
	need := d.Cores
	if need <= 0 {
		need = 1
	}
	if need > cap(w.slots) {
		need = cap(w.slots)
	}
	for i := 0; i < need; i++ {
		select {
		case w.slots <- struct{}{}:
		case <-w.doneC:
			return
		}
	}
	defer func() {
		for i := 0; i < need; i++ {
			<-w.slots
		}
	}()

	start := time.Now()
	fail := func(err error) {
		w.sendMsg(&message{Type: msgTaskDone, TaskDone: &taskDoneMsg{
			TaskID: d.TaskID, OK: false, Error: err.Error(),
			ExecNanos: time.Since(start).Nanoseconds(),
		}})
	}

	// Resolve the callable and its environment per the execution mode.
	var (
		fn       Function
		state    any
		setupDur time.Duration
	)
	switch TaskMode(d.Mode) {
	case ModeTask:
		lib, err := lookupLibrary(d.Library)
		if err != nil {
			fail(err)
			return
		}
		f, ok := lib.Funcs[d.Func]
		if !ok {
			fail(fmt.Errorf("vine: library %q has no function %q", d.Library, d.Func))
			return
		}
		fn = f
		s0 := time.Now()
		st, err := lib.buildState() // environment built per task
		setupDur = time.Since(s0)
		if err != nil {
			fail(fmt.Errorf("vine: task environment: %w", err))
			return
		}
		state = st
	case ModeFunctionCall:
		w.mu.Lock()
		li := w.libs[d.Library]
		w.mu.Unlock()
		if li == nil {
			fail(fmt.Errorf("vine: library %q not installed on worker", d.Library))
			return
		}
		f, ok := li.lib.Funcs[d.Func]
		if !ok {
			fail(fmt.Errorf("vine: library %q has no function %q", d.Library, d.Func))
			return
		}
		fn = f
		st, sd, err := li.stateFor()
		setupDur = sd
		if err != nil {
			fail(fmt.Errorf("vine: library setup: %w", err))
			return
		}
		state = st
	default:
		fail(fmt.Errorf("vine: unknown task mode %q", d.Mode))
		return
	}

	// Wire inputs: every input must already be in the local cache (the
	// manager stages them before dispatch). All inputs are pinned for
	// the duration of the execution so disk-pressure eviction cannot
	// pull a file out from under a running task; the pins drop after the
	// result message is enqueued.
	inputs := make(map[string]string, len(d.Inputs))
	var pinned []CacheName
	defer func() { w.unpin(pinned) }()
	w.mu.Lock()
	for _, in := range d.Inputs {
		name := CacheName(in.CacheName)
		if _, ok := w.cache[name]; !ok {
			w.mu.Unlock()
			fail(fmt.Errorf("vine: input %q (%s) not staged", in.Name, in.CacheName))
			return
		}
		w.pins[name]++
		w.touchLocked(name)
		pinned = append(pinned, name)
		inputs[in.Name] = w.cachePath(name)
	}
	w.mu.Unlock()

	call := &Call{
		Args:    d.Args,
		state:   state,
		inputs:  inputs,
		outputs: make(map[string][]byte),
		reader:  os.ReadFile,
	}
	execStart := time.Now()
	if err := fn(call); err != nil {
		fail(fmt.Errorf("vine: %s/%s: %w", d.Library, d.Func, err))
		return
	}
	execDur := time.Since(execStart)

	// Persist outputs to the cache under their assigned cachenames.
	outSizes := make(map[string]int64, len(d.Outputs))
	for _, out := range d.Outputs {
		data, ok := call.outputs[out.Name]
		if !ok {
			fail(fmt.Errorf("vine: %s/%s did not produce output %q", d.Library, d.Func, out.Name))
			return
		}
		name := CacheName(out.CacheName)
		path := w.cachePath(name)
		// Temp + rename, never truncate-in-place: a content-addressed
		// duplicate of an already-cached (possibly pinned and mid-read)
		// file must swap in atomically.
		tmpF, err := os.CreateTemp(w.dir, cachePathSafe(name)+".out-")
		if err != nil {
			fail(err)
			return
		}
		if _, err := tmpF.Write(data); err != nil {
			tmpF.Close()
			os.Remove(tmpF.Name())
			fail(err)
			return
		}
		if err := tmpF.Close(); err != nil {
			os.Remove(tmpF.Name())
			fail(err)
			return
		}
		if err := os.Rename(tmpF.Name(), path); err != nil {
			os.Remove(tmpF.Name())
			fail(err)
			return
		}
		// Outputs are pinned until the taskDone message below is
		// enqueued: the manager must learn the replica exists before any
		// eviction notice for it can follow on the ordered channel.
		if err := w.addToCache(name, int64(len(data)), true, crc32.Checksum(data, castagnoli)); err != nil {
			os.Remove(path)
			fail(err)
			return
		}
		pinned = append(pinned, name)
		outSizes[out.CacheName] = int64(len(data))
	}

	if TaskMode(d.Mode) == ModeFunctionCall {
		w.met.functionCalls.Inc()
	} else {
		w.met.tasksRun.Inc()
	}
	if setupDur > 0 {
		w.met.librarySetups.Inc()
		w.rec.Emit(obs.Event{Type: obs.EvLibrarySetup, Worker: w.Name, Dur: setupDur, Detail: d.Library})
	}

	w.sendMsg(&message{Type: msgTaskDone, TaskDone: &taskDoneMsg{
		TaskID:      d.TaskID,
		OK:          true,
		OutputSizes: outSizes,
		ExecNanos:   execDur.Nanoseconds(),
		SetupNanos:  setupDur.Nanoseconds(),
	}})
}
