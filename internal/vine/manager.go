package vine

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"hepvine/internal/journal"
	"hepvine/internal/obs"
	"hepvine/internal/randx"
	"hepvine/internal/sched"
)

// jitterStream is the randx stream id for retry-backoff jitter, distinct
// from other seeded streams so the same seed never correlates decisions.
const jitterStream = 417

// TaskState tracks a task through the manager.
type TaskState uint8

// Task lifecycle states on the manager.
const (
	// TaskWaiting tasks lack at least one input source (its producer is
	// being re-run after a loss).
	TaskWaiting TaskState = iota
	// TaskReady tasks can be scheduled.
	TaskReady
	// TaskStaging tasks are assigned; inputs are being transferred.
	TaskStaging
	// TaskRunning tasks are executing on a worker.
	TaskRunning
	// TaskDone tasks completed successfully.
	TaskDone
	// TaskFailed tasks exhausted their retries.
	TaskFailed
)

func (s TaskState) String() string {
	switch s {
	case TaskWaiting:
		return "waiting"
	case TaskReady:
		return "ready"
	case TaskStaging:
		return "staging"
	case TaskRunning:
		return "running"
	case TaskDone:
		return "done"
	case TaskFailed:
		return "failed"
	default:
		return fmt.Sprintf("TaskState(%d)", uint8(s))
	}
}

// FileRef binds a logical input name to a cachename.
type FileRef struct {
	Name      string
	CacheName CacheName
}

// Task describes one unit of work for Submit.
type Task struct {
	Mode    TaskMode
	Library string
	Func    string
	Args    []byte
	Inputs  []FileRef
	Outputs []string
	Cores   int
	// Memory is the task's RAM request in bytes (0 = none); the manager
	// packs tasks onto workers within both core and memory budgets.
	Memory int64
	// Queue names the submission queue (tenant) the task belongs to;
	// empty means the default queue. Queues share the cluster by the
	// weighted fair-share configured with WithQueue.
	Queue string
	// Priority orders tasks within their queue: higher runs first, equal
	// priorities run in submission order.
	Priority int
	// Deadline bounds one execution attempt; an attempt running longer is
	// fast-aborted and speculatively re-dispatched to a different worker,
	// first result winning. 0 falls back to the manager's WithTaskDeadline
	// default (itself 0 = unbounded).
	Deadline time.Duration
}

// TaskFailure is one failed attempt in a task's retained history: which
// attempt, on which worker, why, and how long the manager backed off
// before requeueing it.
type TaskFailure struct {
	Attempt int
	Worker  string
	Cause   string
	Backoff time.Duration
}

// String renders the attempt in the stable "attempt N: cause" form used
// by FailureHistory and terminal errors.
func (f TaskFailure) String() string {
	s := fmt.Sprintf("attempt %d: %s", f.Attempt, f.Cause)
	var extra []string
	if f.Worker != "" {
		extra = append(extra, "worker "+f.Worker)
	}
	if f.Backoff > 0 {
		extra = append(extra, "backoff "+f.Backoff.Round(time.Millisecond).String())
	}
	if len(extra) > 0 {
		s += " (" + strings.Join(extra, ", ") + ")"
	}
	return s
}

func formatFailures(fs []TaskFailure) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.String()
	}
	return out
}

// TaskHandle tracks a submitted task.
type TaskHandle struct {
	ID int

	mgr     *Manager
	outputs map[string]CacheName
	doneC   chan struct{}

	mu            sync.Mutex
	state         TaskState
	err           error
	execTime      time.Duration
	setup         time.Duration
	worker        string
	retries       int
	failures      []TaskFailure
	notified      bool
	warm          bool
	firstDispatch time.Time
}

// WarmHit reports whether this handle was satisfied from replayed journal
// state (a resubmission of an already-completed definition) rather than a
// fresh execution.
func (h *TaskHandle) WarmHit() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.warm
}

// FirstDispatch reports the wall-clock instant the task was first handed
// to a worker (zero while still queued, and forever zero for warm hits
// that never scheduled). The submit→first-dispatch gap is the service
// latency the gate's admission benchmark tracks.
func (h *TaskHandle) FirstDispatch() time.Time {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.firstDispatch
}

// Output reports the cachename assigned to a named output.
func (h *TaskHandle) Output(name string) (CacheName, bool) {
	c, ok := h.outputs[name]
	return c, ok
}

// Done is closed when the task first completes or fails terminally.
func (h *TaskHandle) Done() <-chan struct{} { return h.doneC }

// Wait blocks until completion or the timeout elapses (0 = forever).
func (h *TaskHandle) Wait(timeout time.Duration) error {
	if timeout <= 0 {
		<-h.doneC
	} else {
		select {
		case <-h.doneC:
		case <-time.After(timeout):
			return fmt.Errorf("vine: task %d timed out after %v", h.ID, timeout)
		}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.err
}

// Err reports the terminal error, if any (nil while in flight).
func (h *TaskHandle) Err() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.err
}

// State reports the current manager-side state.
func (h *TaskHandle) State() TaskState {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.state
}

// ExecTime reports the on-worker execution time of the successful run.
func (h *TaskHandle) ExecTime() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.execTime
}

// SetupTime reports the environment-construction time of the successful run
// (the "imports" cost; near zero for hoisted function calls after the first).
func (h *TaskHandle) SetupTime() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.setup
}

// Worker reports the name of the worker whose result was accepted, or ""
// while the task is still pending. After a lineage re-run the name keeps
// pointing at the original executor — the handle describes the first
// accepted completion, not the replica locations.
func (h *TaskHandle) Worker() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.worker
}

// Retries reports how many times the task was re-dispatched.
func (h *TaskHandle) Retries() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.retries
}

// FailureHistory reports the cause of each failed attempt so far, in
// order, bounded by the manager's WithFailureHistory limit. A task that
// exhausts its retries surfaces this history in its terminal error too.
func (h *TaskHandle) FailureHistory() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return formatFailures(h.failures)
}

// FailureRecords reports the typed per-attempt failure history: attempt
// number, the worker it failed on, the cause, and the backoff delay the
// manager applied before requeueing. Bounded by WithFailureHistory.
func (h *TaskHandle) FailureRecords() []TaskFailure {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]TaskFailure(nil), h.failures...)
}

// transferCapPerSource bounds concurrent outbound transfers from one
// worker (§IV.B: "the manager manages the number of concurrent peer
// transfers"). The manager itself is uncapped. Mirrored as
// params.DefaultTransferCapPerSource.
const transferCapPerSource = 3

// managerOptions is the manager half of the option vocabulary.
type managerOptions struct {
	// PeerTransfers enables worker-to-worker staging; disabled, every
	// input is served from the manager (the Work Queue data path).
	PeerTransfers bool
	// MaxRetries bounds per-task re-dispatches after worker failures or
	// transfer errors. Default 5.
	MaxRetries int
	// ReturnOutputs streams every task output back to the manager's own
	// store — the Work Queue data flow (§III.B): the manager becomes the
	// source for all staging, concentrating transfer load on its NIC.
	// TaskVine leaves outputs on workers and moves them peer-to-peer.
	ReturnOutputs bool
	// ReplicateOutputs keeps up to this many worker replicas of every task
	// output (§IV: the manager "compensates by replicating data or
	// re-running tasks" — with replicas, a preemption costs a transfer
	// instead of a re-execution). 0 or 1 disables replication.
	ReplicateOutputs int
	// InstallLibraries lists libraries (by registered name) to instantiate
	// on every worker, with hoisting on or off.
	InstallLibraries []LibrarySpec
}

// LibrarySpec names a library to install on workers.
type LibrarySpec struct {
	Name  string
	Hoist bool
}

// ManagerStats is the manager's view of the shared stats vocabulary.
//
// Deprecated: this is a thin alias for obs.Snapshot; new code should use
// obs.Snapshot directly.
type ManagerStats = obs.Snapshot

// managerMetrics holds the manager's registry-backed instruments,
// prefetched so hot paths pay one atomic op per update.
type managerMetrics struct {
	tasksDone        *obs.Counter
	tasksFailed      *obs.Counter
	retries          *obs.Counter
	peerTransfers    *obs.Counter
	managerTransfers *obs.Counter
	peerBytes        *obs.Counter
	managerBytes     *obs.Counter
	workersJoined    *obs.Counter
	workersLost      *obs.Counter
	tasksAborted     *obs.Counter
	heartbeatMisses  *obs.Counter
	corruptTransfers *obs.Counter
	lineageReruns    *obs.Counter
	warmHits         *obs.Counter
	journalAppends   *obs.Counter
	journalBytes     *obs.Counter
	journalSnapshots *obs.Counter
	journalReplayed  *obs.Counter
	journalSkipped   *obs.Counter
	replaySkipped    *obs.Counter
	leaseLosses      *obs.Counter
	failovers        *obs.Counter
	preemptions      *obs.Counter
	soleOffloads     *obs.Counter
	leaseGrants      *obs.Counter
	leaseBatches     *obs.Counter
	foremanReports   *obs.Counter
	crossShard       *obs.Counter
	crossShardBytes  *obs.Counter
	poolSize         *obs.Gauge
	foremenActive    *obs.Gauge
	execSeconds      *obs.Histogram
	queueWait        *obs.Histogram
	takeoverLatency  *obs.Histogram
}

func newManagerMetrics(reg *obs.Registry) managerMetrics {
	return managerMetrics{
		tasksDone:        reg.Counter("vine_tasks_done_total"),
		tasksFailed:      reg.Counter("vine_tasks_failed_total"),
		retries:          reg.Counter("vine_task_retries_total"),
		peerTransfers:    reg.Counter("vine_peer_transfers_total"),
		managerTransfers: reg.Counter("vine_manager_transfers_total"),
		peerBytes:        reg.Counter("vine_peer_bytes_total"),
		managerBytes:     reg.Counter("vine_manager_bytes_total"),
		workersJoined:    reg.Counter("vine_workers_joined_total"),
		workersLost:      reg.Counter("vine_workers_lost_total"),
		tasksAborted:     reg.Counter("vine_task_aborts_total"),
		heartbeatMisses:  reg.Counter("vine_heartbeat_misses_total"),
		corruptTransfers: reg.Counter("vine_corrupt_transfers_total"),
		lineageReruns:    reg.Counter("vine_lineage_reruns_total"),
		warmHits:         reg.Counter("vine_warm_hits_total"),
		journalAppends:   reg.Counter("vine_journal_appends_total"),
		journalBytes:     reg.Counter("vine_journal_bytes_total"),
		journalSnapshots: reg.Counter("vine_journal_snapshots_total"),
		journalReplayed:  reg.Counter("vine_journal_replayed_records_total"),
		journalSkipped:   reg.Counter("vine_journal_skipped_frames_total"),
		replaySkipped:    reg.Counter("vine_journal_replay_skipped_total"),
		leaseLosses:      reg.Counter("vine_lease_losses_total"),
		failovers:        reg.Counter("vine_failovers_total"),
		preemptions:      reg.Counter("vine_preemptions_total"),
		soleOffloads:     reg.Counter("vine_sole_replica_offloads_total"),
		leaseGrants:      reg.Counter("vine_lease_grants_total"),
		leaseBatches:     reg.Counter("vine_lease_batches_total"),
		foremanReports:   reg.Counter("vine_foreman_reports_total"),
		crossShard:       reg.Counter("vine_cross_shard_transfers_total"),
		crossShardBytes:  reg.Counter("vine_cross_shard_bytes_total"),
		poolSize:         reg.Gauge("vine_pool_size"),
		foremenActive:    reg.Gauge("vine_foremen_active"),
		execSeconds:      reg.Histogram("vine_task_exec_seconds"),
		queueWait:        reg.Histogram("vine_task_queue_wait_seconds"),
		takeoverLatency:  reg.Histogram("vine_takeover_latency_seconds"),
	}
}

// workerState is the manager's view of one connected worker.
type workerState struct {
	id           int
	name         string
	conn         *conn
	transferAddr string
	cores        int
	usedCores    int
	memory       int64 // advertised bytes; 0 = unlimited
	usedMemory   int64
	cache        map[CacheName]bool
	cacheBytes   int64
	outbound     int // active transfers served by this worker
	alive        bool
	// Elasticity: preemptible is the hello-advertised attribute; a
	// draining worker announced a preemption notice and accepts no new
	// work. drainDeadline is when its grace window blows; drainReleased
	// flips once the manager has sent drain_done (so sweep sends it once).
	preemptible   bool
	draining      bool
	drainDeadline time.Time
	drainReleased bool
	// Liveness: lastSeen is bumped on every control-channel receive;
	// lastPing is when the manager last probed an otherwise-quiet link.
	lastSeen time.Time
	lastPing time.Time
	// pendingSources records in-flight inbound transfers and which worker
	// serves each, so source capacity frees on completion or loss.
	pendingSources []srcRecord
	// Federation: foreman marks a subordinate manager registered over the
	// same protocol. Its cache map tracks which files its whole shard
	// holds; shardAddr maps each of those to the shard-local transfer
	// address serving it (the payload of a peer-transfer ticket). leaseBuf
	// coalesces leases within one scheduling pass; backlog is the shard's
	// last-reported leased-but-not-terminal count.
	foreman   bool
	shardAddr map[CacheName]string
	leaseBuf  []leaseEntryWire
	backlog   int
	doneCount int // completions accepted from this worker or shard
}

// fileState tracks replicas of one cachename.
type fileState struct {
	size       int64
	workers    map[int]bool // worker ids holding it
	onManager  bool
	producer   int // task id that produces it; -1 for declared files
	mgrPath    string
	mgrData    []byte
	refWaiters []*taskRecord // staging tasks waiting for this file
	// External replicas (a foreman's view of a peer-transfer ticket):
	// addresses outside this manager's own cluster known to serve the
	// file. ext rotates on staging retries; extBad holds addresses
	// quarantined after serving bytes that failed their checksum. wasExt
	// marks a file that ever had external sources, so exhausting them
	// fast-fails the consumer (reporting the loss upward) instead of
	// waiting on a producer this manager never had.
	ext    []string
	extBad []string
	wasExt bool
}

// taskRecord is the manager-side task bookkeeping.
type taskRecord struct {
	id       int
	spec     Task
	handle   *TaskHandle
	state    TaskState
	worker   int // assigned worker id (staging/running)
	pending  map[CacheName]bool
	retries  int
	failures []TaskFailure // bounded per-attempt causes (see WithFailureHistory)
	defHash  string

	// Fast-abort bookkeeping: stragglers holds worker ids of aborted
	// attempts still running speculatively (first to finish wins);
	// deadlineAt is when the current running attempt expires (zero =
	// unbounded).
	stragglers map[int]bool
	deadlineAt time.Time

	// sq is the task's persistent scheduler-side record, created at
	// Submit and re-enqueued on every requeue.
	sq *sched.Task
}

func (rec *taskRecord) isStraggler(wid int) bool { return rec.stragglers[wid] }

// label is the task's identity in trace events.
func (rec *taskRecord) label() string { return strconv.Itoa(rec.id) }

// pendingTransfer is a queued staging operation. attempts counts how many
// times this file has already failed to reach this destination, so the
// failover ladder (retry from another replica) stays bounded. offload
// marks a drain evacuation — a sole-replica copy leaving a preempted
// worker — so completion is counted and traced as an offload rather
// than ordinary staging.
type pendingTransfer struct {
	name     CacheName
	dest     int // worker id
	source   int // worker id, or -1 for manager
	attempts int
	offload  bool
}

// maxTransferAttempts bounds per-file staging attempts across sources
// before the failure escalates to a task-level retry (and, if no clean
// replica remains, a lineage rollback). Mirrored as
// params.DefaultTransferAttempts.
const maxTransferAttempts = 3

// defaultLeaseBatch bounds how many leases ride in one frame to a
// foreman. Mirrored as params.DefaultLeaseBatch.
const defaultLeaseBatch = 64

// Manager is the TaskVine manager: it accepts workers, schedules tasks
// where their data lives, orchestrates peer transfers, and re-runs work
// lost to preempted workers.
type Manager struct {
	opts      managerOptions
	failLimit int // max retained failure causes per task

	rec *obs.Recorder
	reg *obs.Registry
	met managerMetrics

	ln net.Listener
	ts *transferServer
	nc netConfig

	// Liveness, retry, and recovery policy (immutable after construction).
	hbInterval      time.Duration
	hbTimeout       time.Duration
	taskDeadline    time.Duration
	backoffBase     time.Duration
	backoffMax      time.Duration
	recoveryTimeout time.Duration
	ctrlOverhead    time.Duration // modelled cost per task-path control frame

	stopC chan struct{} // closed by Stop; exits the monitor goroutine

	start time.Time // epoch for queue-wait accounting

	// Durability (see journal.go). jr is the attached run journal (nil =
	// durability off); replayed indexes journal-materialized completed
	// tasks by definition hash for the warm Submit path; journalDones
	// counts journaled completions toward the next auto-compaction.
	jr           *journal.Journal
	compactEvery int
	replayed     map[string]*taskRecord
	journalDones int

	// Service hooks (see service.go). live indexes every task submitted in
	// this incarnation by definition hash, so SubmitShared can dedupe a
	// second client's identical submission onto the first's execution;
	// draining (one-way) refuses fresh work while in-flight tasks finish.
	live     map[string]*taskRecord
	draining bool

	// Availability (see ha.go). lease is the leadership lease this manager
	// holds (nil = HA off); preState is a follower-built journal fold a
	// standby hands over so takeover skips re-reading the log;
	// takeoverFrom/takeoverEpoch mark when and under which fencing epoch
	// this manager assumed a dead primary's role.
	lease         Lease
	preState      *ReplayState
	takeoverFrom  time.Time
	takeoverEpoch uint64

	mu        sync.Mutex
	change    chan struct{} // closed+replaced on any state change (broadcast)
	rng       *randx.RNG    // retry jitter; guarded by mu
	workers   map[int]*workerState
	files     map[CacheName]*fileState
	tasks     map[int]*taskRecord
	waiting   map[int]*taskRecord // tasks in TaskWaiting, indexed so completions don't scan the whole table
	sched     *sched.Scheduler    // ready set + worker index; guarded by mu
	queueMet  map[string]*obs.Counter
	completed []int // task ids completed but not yet returned by WaitAny
	queuedTx  []pendingTransfer
	nextWID   int
	nextTID   int
	stopped   bool
	// leaseFlushArmed is true while the one-shot lease microbatch timer
	// is pending (see flushLeasesLocked).
	leaseFlushArmed bool
	// fenced is set (one-way) when the leadership lease is lost: the
	// manager stays up for queries but never dispatches again, so a
	// paused-then-resumed old primary cannot split-brain the cluster.
	fenced      bool
	takeoverLat time.Duration // lease expiry → first dispatch; 0 until observed
}

// notifyLocked wakes every goroutine blocked in WaitAny/WaitForWorkers by
// closing the current change channel and installing a fresh one — the
// channel-broadcast idiom, replacing the former sync.Cond (whose lack of
// a timed wait forced busy-polling).
func (m *Manager) notifyLocked() {
	close(m.change)
	m.change = make(chan struct{})
}

// defaultFailureHistory bounds the per-task failure causes retained for
// diagnostics unless WithFailureHistory overrides it.
const defaultFailureHistory = 8

// NewManager starts a manager listening on a loopback port, configured
// by functional options (WithPeerTransfers, WithMaxRetries,
// WithRecorder, ...). Worker-only options are ignored.
func NewManager(options ...Option) (*Manager, error) {
	c := buildConfig(options)
	opts := c.mgr
	if opts.MaxRetries <= 0 {
		opts.MaxRetries = 5
	}
	reg := obs.NewRegistry()
	m := &Manager{
		opts:            opts,
		failLimit:       c.failureHistory,
		rec:             c.rec,
		reg:             reg,
		met:             newManagerMetrics(reg),
		nc:              c.netConfig(),
		hbInterval:      c.hbInterval,
		ctrlOverhead:    c.controlOverhead,
		hbTimeout:       c.hbTimeout,
		taskDeadline:    c.taskDeadline,
		backoffBase:     c.backoffBase,
		backoffMax:      c.backoffMax,
		recoveryTimeout: c.recoveryTimeout,
		stopC:           make(chan struct{}),
		change:          make(chan struct{}),
		rng:             randx.NewStream(c.retrySeed, jitterStream),
		workers:         make(map[int]*workerState),
		files:           make(map[CacheName]*fileState),
		tasks:           make(map[int]*taskRecord),
		waiting:         make(map[int]*taskRecord),
		sched:           sched.New(c.schedPolicy, c.queues...),
		queueMet:        make(map[string]*obs.Counter),
		start:           time.Now(),
		jr:              c.jr,
		compactEvery:    c.journalCompactEvery,
		replayed:        make(map[string]*taskRecord),
		live:            make(map[string]*taskRecord),
		lease:           c.lease,
		preState:        c.replayState,
		takeoverFrom:    c.takeoverFrom,
		takeoverEpoch:   c.takeoverEpoch,
	}
	// Replay the journal before anything can connect or submit: the replay
	// runs single-threaded over fresh state, so no locking is needed, and a
	// resumed manager starts life already knowing every completed task.
	if m.jr != nil || m.preState != nil {
		warmable, err := m.replayJournal()
		if err != nil {
			return nil, fmt.Errorf("vine: journal replay: %w", err)
		}
		if m.preState != nil {
			m.rec.Emit(obs.Event{Type: obs.EvManagerResume, Detail: fmt.Sprintf(
				"%d records folded by standby tail, %d tasks warmable",
				m.preState.Applied(), warmable)})
		} else {
			st := m.jr.Stats()
			m.rec.Emit(obs.Event{Type: obs.EvManagerResume, Detail: fmt.Sprintf(
				"%d records replayed, %d frames skipped, %d torn tails, %d tasks warmable",
				st.Replayed, st.Skipped, st.TornTails, warmable)})
		}
	}
	ts, err := newTransferServer(m, m.nc, "manager/transfer")
	if err != nil {
		return nil, err
	}
	m.ts = ts
	addr := c.listenAddr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		ts.close()
		return nil, err
	}
	m.ln = m.nc.listen(ln, "manager/control")
	if m.takeoverEpoch > 0 {
		m.met.failovers.Inc()
		m.rec.Emit(obs.Event{Type: obs.EvManagerResume, Detail: fmt.Sprintf(
			"takeover epoch %d listening on %s", m.takeoverEpoch, m.ln.Addr())})
	}
	if m.lease != nil {
		go m.watchLease()
	}
	go m.acceptLoop()
	go m.monitor()
	return m, nil
}

// Addr reports the manager's control address for workers to dial.
func (m *Manager) Addr() string { return m.ln.Addr().String() }

// Stop shuts the manager down and disconnects workers. Tasks still in
// flight have their handles failed so blocked Wait calls return; with a
// journal attached the log is synced first, so a later resume sees
// everything this run completed. Acquiring m.mu drains any in-flight
// Submit or completion handler before stopped is set, and journalLocked
// refuses appends afterwards — so the sync below is ordered after the
// last append that will ever happen (see journalLocked).
func (m *Manager) Stop() {
	m.mu.Lock()
	if m.stopped {
		m.mu.Unlock()
		return
	}
	m.stopped = true
	ws := make([]*workerState, 0, len(m.workers))
	for _, w := range m.workers {
		ws = append(ws, w)
	}
	m.failPendingLocked(errors.New("vine: manager stopped"))
	m.notifyLocked()
	close(m.stopC)
	m.mu.Unlock()
	if m.jr != nil {
		m.jr.Sync()
	}
	for _, w := range ws {
		w.conn.send(&message{Type: msgKill})
		w.conn.close()
	}
	m.ln.Close()
	m.ts.close()
}

// Stats snapshots manager counters into the shared obs.Snapshot
// vocabulary.
func (m *Manager) Stats() ManagerStats {
	return ManagerStats{
		TasksDone:           int(m.met.tasksDone.Value()),
		TasksFailed:         int(m.met.tasksFailed.Value()),
		Retries:             int(m.met.retries.Value()),
		PeerTransfers:       int(m.met.peerTransfers.Value()),
		ManagerTransfers:    int(m.met.managerTransfers.Value()),
		PeerBytes:           m.met.peerBytes.Value(),
		ManagerBytes:        m.met.managerBytes.Value(),
		WorkersLost:         int(m.met.workersLost.Value()),
		TasksAborted:        int(m.met.tasksAborted.Value()),
		HeartbeatMisses:     int(m.met.heartbeatMisses.Value()),
		CorruptTransfers:    int(m.met.corruptTransfers.Value()),
		LineageReruns:       int(m.met.lineageReruns.Value()),
		Preemptions:         int(m.met.preemptions.Value()),
		SoleReplicaOffloads: int(m.met.soleOffloads.Value()),
		JournalAppends:      int(m.met.journalAppends.Value()),
		JournalReplayed:     int(m.met.journalReplayed.Value()),
		WarmHits:            int(m.met.warmHits.Value()),
	}
}

// Metrics exposes the manager's metrics registry.
func (m *Manager) Metrics() *obs.Registry { return m.reg }

// Recorder reports the attached trace recorder (nil when tracing is
// disabled).
func (m *Manager) Recorder() *obs.Recorder { return m.rec }

// WriteMetrics dumps all manager metrics as plain text, one metric per
// line in the /metrics exposition style.
func (m *Manager) WriteMetrics(w io.Writer) error { return m.reg.WriteText(w) }

// WorkerCount reports live workers.
func (m *Manager) WorkerCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.liveWorkersLocked()
}

// liveWorkersLocked counts currently-alive workers (requires m.mu) — the
// value behind WaitForWorkers and the vine_pool_size gauge. Dead entries
// linger in m.workers for history, so this is a filter, not a len().
func (m *Manager) liveWorkersLocked() int {
	n := 0
	for _, w := range m.workers {
		if w.alive {
			n++
		}
	}
	return n
}

// WaitForWorkers blocks until n workers are connected or the timeout
// elapses. It parks on the manager's change broadcast rather than
// polling, so joins are observed immediately.
func (m *Manager) WaitForWorkers(n int, timeout time.Duration) error {
	t := time.NewTimer(timeout)
	defer t.Stop()
	for {
		m.mu.Lock()
		count := 0
		for _, w := range m.workers {
			if w.alive {
				count++
			}
		}
		ch := m.change
		m.mu.Unlock()
		if count >= n {
			return nil
		}
		select {
		case <-ch:
		case <-t.C:
			return fmt.Errorf("vine: only %d of %d workers after %v", m.WorkerCount(), n, timeout)
		}
	}
}

// openCache implements transferSource over the manager's declared files.
func (m *Manager) openCache(name CacheName) (io.ReadCloser, int64, error) {
	m.mu.Lock()
	fs, ok := m.files[name]
	if !ok || !fs.onManager {
		m.mu.Unlock()
		return nil, 0, fmt.Errorf("not on manager: %s", name)
	}
	path, data, size := fs.mgrPath, fs.mgrData, fs.size
	m.mu.Unlock()
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, 0, err
		}
		return f, size, nil
	}
	return io.NopCloser(bytes.NewReader(data)), size, nil
}

// DeclareBuffer registers in-memory data as a cluster file served by the
// manager. Content-addressed: declaring identical data twice yields the
// same cachename.
func (m *Manager) DeclareBuffer(data []byte) CacheName {
	name := blobName(data)
	m.mu.Lock()
	defer m.mu.Unlock()
	if fs, ok := m.files[name]; ok {
		hadSource := fs.onManager
		fs.onManager = true
		if fs.mgrData == nil && fs.mgrPath == "" {
			fs.mgrData = append([]byte(nil), data...)
			fs.size = int64(len(data))
		}
		if !hadSource {
			m.journalLocked(declRecord(name, fs))
		}
		return name
	}
	fs := &fileState{
		size:      int64(len(data)),
		workers:   make(map[int]bool),
		onManager: true,
		producer:  -1,
		mgrData:   append([]byte(nil), data...),
	}
	m.files[name] = fs
	m.journalLocked(declRecord(name, fs))
	return name
}

// DeclareFile registers an on-disk file as a cluster file served by the
// manager (the staging path for dataset files on shared storage).
func (m *Manager) DeclareFile(path string) (CacheName, error) {
	name, size, err := fileBlobName(path)
	if err != nil {
		return "", err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if fs, ok := m.files[name]; ok {
		hadSource := fs.onManager
		fs.onManager = true
		if fs.mgrPath == "" && fs.mgrData == nil {
			fs.mgrPath = path
			fs.size = size
		}
		if !hadSource {
			m.journalLocked(declRecord(name, fs))
		}
		return name, nil
	}
	fs := &fileState{
		size:      size,
		workers:   make(map[int]bool),
		onManager: true,
		producer:  -1,
		mgrPath:   path,
	}
	m.files[name] = fs
	m.journalLocked(declRecord(name, fs))
	return name, nil
}

// prepareTask validates and normalizes a task spec and computes its
// definition hash. Shared by Submit and SubmitShared.
func prepareTask(t Task) (Task, string, error) {
	if t.Mode == "" {
		t.Mode = ModeTask
	}
	if t.Mode != ModeTask && t.Mode != ModeFunctionCall {
		return t, "", fmt.Errorf("vine: unknown mode %q", t.Mode)
	}
	if t.Library == "" || t.Func == "" {
		return t, "", fmt.Errorf("vine: task needs library and function names")
	}
	if _, err := lookupLibrary(t.Library); err != nil {
		return t, "", err
	}
	if t.Cores <= 0 {
		t.Cores = 1
	}
	seen := map[string]bool{}
	for _, in := range t.Inputs {
		if in.Name == "" || !in.CacheName.Valid() {
			return t, "", fmt.Errorf("vine: invalid input ref %+v", in)
		}
		if seen[in.Name] {
			return t, "", fmt.Errorf("vine: duplicate input name %q", in.Name)
		}
		seen[in.Name] = true
	}
	return t, taskDefHash(string(t.Mode), t.Library, t.Func, t.Args, t.Inputs), nil
}

// Submit enqueues a task and returns its handle. Output cachenames are
// assigned immediately from the task definition hash, so dependent tasks
// can be submitted before this one runs.
func (m *Manager) Submit(t Task) (*TaskHandle, error) {
	t, defHash, err := prepareTask(t)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stopped {
		return nil, fmt.Errorf("vine: manager stopped")
	}
	if h := m.warmHitLocked(m.replayed[defHash], defHash, t.Outputs); h != nil {
		return h, nil
	}
	if m.draining {
		return nil, ErrDraining
	}
	return m.submitFreshLocked(t, defHash)
}

// warmHitLocked serves a dedupe hit on old, an earlier record of the
// same definition (live, or replayed from the journal): if it completed
// with exactly the requested outputs and none has been unlinked, hand back
// the done handle — the task never re-executes. It's a warm *hit* only
// when every output still has a live source; otherwise the bytes
// regenerate through lineage on first consumer access, which still beats
// re-running the whole graph. Returns nil when old (possibly nil) is not
// such a completion.
func (m *Manager) warmHitLocked(old *taskRecord, defHash string, outputs []string) *TaskHandle {
	if old == nil || old.state != TaskDone || !m.outputsMatchLocked(old, outputs) {
		return nil
	}
	warm := true
	for _, out := range outputs {
		if !m.hasSourceLocked(old.handle.outputs[out]) {
			warm = false
			break
		}
	}
	detail := "all outputs live"
	if warm {
		old.handle.mu.Lock()
		old.handle.warm = true
		old.handle.mu.Unlock()
		m.met.warmHits.Inc()
	} else {
		detail = "outputs need lineage regeneration"
	}
	m.rec.Emit(obs.Event{Type: obs.EvWarmHit, Task: old.label(), Detail: defHash + ": " + detail})
	return old.handle
}

// submitFreshLocked creates and enqueues a new task record for a prepared
// spec, registering it in the live definition index for cross-client
// dedupe (requires m.mu).
func (m *Manager) submitFreshLocked(t Task, defHash string) (*TaskHandle, error) {
	h := &TaskHandle{
		mgr:     m,
		outputs: make(map[string]CacheName, len(t.Outputs)),
		doneC:   make(chan struct{}),
	}
	id := m.nextTID
	m.nextTID++
	h.ID = id
	rec := &taskRecord{id: id, spec: t, handle: h, worker: -1, defHash: defHash}
	for _, out := range t.Outputs {
		cn := outputName(defHash, out)
		h.outputs[out] = cn
		if _, exists := m.files[cn]; !exists {
			m.files[cn] = &fileState{workers: make(map[int]bool), producer: id}
		} else {
			m.files[cn].producer = id
		}
	}
	// Inputs must be declared files or outputs of submitted tasks.
	for _, in := range t.Inputs {
		if _, ok := m.files[in.CacheName]; !ok {
			return nil, fmt.Errorf("vine: input %s (%s) is neither declared nor produced by a submitted task", in.Name, in.CacheName)
		}
	}
	m.tasks[id] = rec
	m.live[defHash] = rec
	inputs := make([]string, len(t.Inputs))
	for i, in := range t.Inputs {
		inputs[i] = string(in.CacheName)
	}
	rec.sq = &sched.Task{
		ID: rec.label(), Queue: t.Queue, Priority: t.Priority,
		Cores: t.Cores, Memory: t.Memory, Inputs: inputs,
	}
	m.rec.Emit(obs.Event{Type: obs.EvTaskSubmit, Task: rec.label(), Detail: t.Library + "/" + t.Func})
	m.journalLocked(taskDefRecord(rec))
	if m.inputsAvailableLocked(rec) {
		m.enqueueReadyLocked(rec)
	} else {
		// An input may already have been lost with its worker (all its
		// replicas died before this submission): re-run producers now,
		// or the task waits forever.
		m.setTaskState(rec, TaskWaiting)
		m.reviveProducersLocked(rec)
	}
	m.scheduleLocked()
	return h, nil
}

// SubmitFunc is a convenience Submit for a no-input function call.
func (m *Manager) SubmitFunc(mode TaskMode, library, fn string, args []byte, outputs ...string) (*TaskHandle, error) {
	return m.Submit(Task{Mode: mode, Library: library, Func: fn, Args: args, Outputs: outputs})
}

// FetchBytes retrieves a file from the cluster: from the manager's own
// store if present, else from any worker replica. When every replica is
// gone — the classic "the preempted worker held the only copy" — it
// triggers a lineage rollback of the producer and waits (bounded by
// WithRecoveryTimeout) for the regenerated bytes, so callers like the
// daskvine bridge ride through worker loss instead of erroring. A fetch
// whose payload fails its checksum quarantines that replica and retries
// from another, falling back to rollback when no clean copy remains.
func (m *Manager) FetchBytes(name CacheName) ([]byte, error) {
	deadline := time.Now().Add(m.recoveryTimeout)
	badFetches := 0
	for {
		m.mu.Lock()
		if m.stopped {
			m.mu.Unlock()
			return nil, fmt.Errorf("vine: manager stopped")
		}
		fs, ok := m.files[name]
		if !ok {
			m.mu.Unlock()
			return nil, fmt.Errorf("vine: unknown file %s", name)
		}
		if fs.onManager {
			path, data := fs.mgrPath, fs.mgrData
			m.mu.Unlock()
			if path != "" {
				return os.ReadFile(path)
			}
			return append([]byte(nil), data...), nil
		}
		addr, src, srcName := "", -1, ""
		ids := make([]int, 0, len(fs.workers))
		for wid := range fs.workers {
			ids = append(ids, wid)
		}
		sort.Ints(ids)
		for _, wid := range ids {
			if w := m.workers[wid]; w != nil && w.alive {
				if a := m.replicaAddrLocked(w, name); a != "" {
					addr, src, srcName = a, wid, w.name
					break
				}
			}
		}
		if addr == "" {
			// No live replica anywhere: lineage rollback. Re-enqueue the
			// producer and park on the change broadcast until the file
			// regenerates (its content-addressed cachename is stable, so
			// the re-run's output lands under the same key).
			if !m.recoverFileLocked(name) {
				m.mu.Unlock()
				return nil, fmt.Errorf("vine: no live replica of %s and no recoverable producer", name)
			}
			m.scheduleLocked()
			ch := m.change
			m.mu.Unlock()
			select {
			case <-ch:
			case <-time.After(time.Until(deadline)):
				return nil, fmt.Errorf("vine: recovery of %s timed out after %v", name, m.recoveryTimeout)
			}
			continue
		}
		m.mu.Unlock()
		data, err := m.nc.fetchBytes(addr, name, "manager/fetch")
		if err == nil {
			return data, nil
		}
		badFetches++
		if errors.Is(err, ErrCorruptTransfer) {
			m.mu.Lock()
			m.met.corruptTransfers.Inc()
			m.rec.Emit(obs.Event{Type: obs.EvFileCorrupt, Src: srcName, Dst: "manager", Detail: string(name) + ": " + err.Error()})
			m.quarantineReplicaLocked(name, src)
			m.mu.Unlock()
		}
		if badFetches >= 4*maxTransferAttempts || time.Now().After(deadline) {
			return nil, fmt.Errorf("vine: fetching %s: %w", name, err)
		}
		// Brief park before retrying: a worker-loss event (which purges
		// the dead replica from the table) wakes the retry early, so a
		// fetch racing the loss detection doesn't hammer a dead address.
		m.mu.Lock()
		ch := m.change
		m.mu.Unlock()
		select {
		case <-ch:
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// Unlink removes a file from all worker caches and the manager's tables.
// Task outputs that are unlinked cannot be recovered.
func (m *Manager) Unlink(name CacheName) {
	m.mu.Lock()
	fs, ok := m.files[name]
	if !ok {
		m.mu.Unlock()
		return
	}
	var conns []*conn
	for wid := range fs.workers {
		if w := m.workers[wid]; w != nil && w.alive {
			conns = append(conns, w.conn)
			w.cacheBytes -= fs.size
			delete(w.cache, name)
		}
	}
	delete(m.files, name)
	m.sched.FileForgotten(string(name))
	m.journalLocked(&journal.Record{Kind: journal.KindUnlink, CacheName: string(name)})
	m.mu.Unlock()
	for _, c := range conns {
		c.send(&message{Type: msgUnlink, Unlink: &unlinkMsg{CacheName: string(name)}})
	}
}

// ReplicaCount reports live replicas of a file (manager store counts as
// one).
func (m *Manager) ReplicaCount(name CacheName) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	fs, ok := m.files[name]
	if !ok {
		return 0
	}
	n := 0
	if fs.onManager {
		n++
	}
	for wid := range fs.workers {
		if w := m.workers[wid]; w != nil && w.alive {
			n++
		}
	}
	return n
}

// ---- connection handling ----

func (m *Manager) acceptLoop() {
	for {
		c, err := m.ln.Accept()
		if err != nil {
			return
		}
		go m.handleWorker(newConn(c))
	}
}

func (m *Manager) handleWorker(cc *conn) {
	// First frame must be hello.
	msg0, err := cc.recv()
	if err != nil || msg0.Type != msgHello || msg0.Hello == nil {
		cc.close()
		return
	}
	hello := msg0.Hello

	m.mu.Lock()
	if m.stopped {
		m.mu.Unlock()
		cc.close()
		return
	}
	// A reconnecting worker may beat the heartbeat monitor to the punch:
	// retire any live registration under the same name first, so capacity
	// and replicas aren't double-counted across two ids — and so the
	// inventory below re-registers the replicas the stale entry just lost.
	for oldID, old := range m.workers {
		if old.alive && old.name == hello.Name {
			m.workerLostLocked(oldID)
		}
	}
	id := m.nextWID
	m.nextWID++
	w := &workerState{
		id:           id,
		name:         hello.Name,
		conn:         cc,
		transferAddr: hello.TransferAddr,
		cores:        hello.Cores,
		memory:       hello.Memory,
		preemptible:  hello.Preemptible,
		foreman:      hello.Foreman,
		cache:        make(map[CacheName]bool),
		alive:        true,
		lastSeen:     time.Now(),
	}
	if w.foreman {
		w.shardAddr = make(map[CacheName]string)
	}
	m.workers[id] = w
	m.sched.WorkerJoin(id, hello.Cores, hello.Memory)
	if hello.Preemptible {
		m.sched.SetWorkerAttrs(id, true, false)
	}
	m.met.poolSize.Set(int64(m.liveWorkersLocked()))
	if w.foreman {
		m.met.foremenActive.Set(int64(m.foremenActiveLocked()))
	}
	// Ingest the cache inventory: every surviving entry the manager knows
	// about becomes a replica again, so completed work is never re-staged
	// just because a connection (or the manager itself) bounced. Unknown
	// or size-mismatched entries are left unacknowledged; the worker's
	// orphan TTL reclaims them.
	var known []string
	for _, e := range hello.Inventory {
		cn := CacheName(e.CacheName)
		fs := m.files[cn]
		if fs == nil || (fs.size != 0 && fs.size != e.Size) {
			continue
		}
		if w.foreman && e.Addr == "" {
			// A shard replica the root cannot ticket is useless — worse,
			// counting it would satisfy hasSource while leaseLocked can
			// never build a ticket for it. Leave it unacknowledged.
			continue
		}
		if fs.size == 0 {
			fs.size = e.Size
		}
		fs.workers[id] = true
		w.cache[cn] = true
		w.cacheBytes += e.Size
		if w.foreman {
			w.shardAddr[cn] = e.Addr
		}
		m.sched.FileCached(id, e.CacheName, e.Size)
		known = append(known, e.CacheName)
	}
	if len(known) > 0 {
		m.promoteWaitersLocked()
	}
	libs := append([]LibrarySpec(nil), m.opts.InstallLibraries...)
	if w.foreman {
		// Foremen install libraries on their own shard workers; the root
		// only leases tasks to them.
		libs = nil
	}
	m.notifyLocked()
	m.mu.Unlock()
	m.met.workersJoined.Inc()
	joinDetail := strconv.Itoa(w.cores) + " cores"
	if len(hello.Inventory) > 0 {
		joinDetail += fmt.Sprintf(", %d/%d cached files recognized", len(known), len(hello.Inventory))
	}
	if w.foreman {
		m.rec.Emit(obs.Event{Type: obs.EvForemanJoin, Worker: w.name, Detail: joinDetail})
	}
	m.rec.Emit(obs.Event{Type: obs.EvWorkerJoin, Worker: w.name, Detail: joinDetail})
	if len(hello.Inventory) > 0 {
		cc.send(&message{Type: msgInventoryAck, InventoryAck: &inventoryAckMsg{Known: known}})
	}
	if m.takeoverEpoch > 0 {
		// Announce the takeover so workers (and their operators) know which
		// incarnation they re-registered with; the epoch lets a worker
		// discard notices from a fenced older manager.
		holder := ""
		if m.lease != nil {
			holder = m.lease.Holder()
		}
		cc.send(&message{Type: msgTakeover, Takeover: &takeoverMsg{Holder: holder, Epoch: m.takeoverEpoch}})
	}

	for _, l := range libs {
		cc.send(&message{Type: msgLibrary, Library: &libraryMsg{Name: l.Name, Hoist: l.Hoist}})
	}

	m.mu.Lock()
	m.scheduleLocked()
	m.mu.Unlock()

	for {
		msg, err := cc.recv()
		if err != nil {
			m.workerLost(id)
			return
		}
		m.mu.Lock()
		w.lastSeen = time.Now()
		m.mu.Unlock()
		switch msg.Type {
		case msgTaskDone:
			if msg.TaskDone != nil {
				m.onTaskDone(id, msg.TaskDone)
			}
		case msgReport:
			if msg.Report != nil {
				m.onForemanReport(id, msg.Report)
			}
		case msgTransferDone:
			if msg.TransferDone != nil {
				m.onTransferDone(id, msg.TransferDone)
			}
		case msgEvicted:
			if msg.Evicted != nil {
				m.onEvicted(id, msg.Evicted)
			}
		case msgDraining:
			if msg.Draining != nil {
				m.onDraining(id, msg.Draining)
			}
		case msgPong:
			// lastSeen bump above is the whole point.
		}
	}
}

// ---- scheduling core (all *Locked functions require m.mu) ----

// inputsAvailableLocked reports whether every input of rec has at least one
// live source.
func (m *Manager) inputsAvailableLocked(rec *taskRecord) bool {
	for _, in := range rec.spec.Inputs {
		if !m.hasSourceLocked(in.CacheName) {
			return false
		}
	}
	return true
}

func (m *Manager) hasSourceLocked(name CacheName) bool {
	fs, ok := m.files[name]
	if !ok {
		return false
	}
	if fs.onManager || len(fs.ext) > 0 {
		return true
	}
	for wid := range fs.workers {
		if w := m.workers[wid]; w != nil && w.alive {
			return true
		}
	}
	return false
}

func (m *Manager) setTaskState(rec *taskRecord, s TaskState) {
	if s == TaskWaiting {
		m.waiting[rec.id] = rec
	} else if rec.state == TaskWaiting {
		delete(m.waiting, rec.id)
	}
	rec.state = s
	rec.handle.mu.Lock()
	rec.handle.state = s
	rec.handle.mu.Unlock()
}

// nowOff is the manager's scheduling clock: nanoseconds since start,
// the timebase for queue-wait accounting.
func (m *Manager) nowOff() int64 { return time.Since(m.start).Nanoseconds() }

// enqueueReadyLocked hands a task to the scheduler's ready set,
// refreshing the exclusion set so speculative re-dispatches avoid
// straggler workers. Re-enqueueing a queued task is a no-op.
func (m *Manager) enqueueReadyLocked(rec *taskRecord) {
	m.setTaskState(rec, TaskReady)
	rec.sq.Exclude = rec.stragglers
	m.sched.Enqueue(rec.sq, m.nowOff())
}

// scheduleLocked drains the scheduler onto workers and starts staging.
// Placement is delegated to the sched subsystem: the policy pipeline
// picks a worker per task, weighted fair-share picks which queue goes
// next, and the scheduler's own indexes (sorted worker ids, per-worker
// file sets) keep the hot path free of per-task rebuild/sort work.
func (m *Manager) scheduleLocked() {
	if m.stopped || m.fenced {
		return
	}
	m.sched.Assign(m.nowOff(), func(a sched.Assignment) {
		id, err := strconv.Atoi(a.Task.ID)
		if err != nil {
			return
		}
		if rec := m.tasks[id]; rec != nil {
			m.assignLocked(rec, a)
		}
	})
	m.pumpTransfersLocked()
	m.flushLeasesLocked()
}

// QueueStats snapshots the per-queue scheduler state: pending depth,
// dispatch count, and cumulative queue wait per tenant.
func (m *Manager) QueueStats() []sched.QueueStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sched.Queues()
}

// ProvisionQueue registers (or re-weights) a named submission queue at
// runtime — the gate's tenancy→QoS hook: each tenant gets its own queue,
// provisioned on first contact rather than at manager construction.
func (m *Manager) ProvisionQueue(name string, weight float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sched.AddQueue(sched.QueueConfig{Name: name, Weight: weight})
}

// DropQueue removes a provisioned queue once it holds no ready work (the
// default queue is permanent). Reports whether the queue was removed.
func (m *Manager) DropQueue(name string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sched.RemoveQueue(name)
}

// queueCounterLocked interns the per-queue dispatch counter.
func (m *Manager) queueCounterLocked(queue string) *obs.Counter {
	c, ok := m.queueMet[queue]
	if !ok {
		c = m.reg.Counter(fmt.Sprintf("vine_queue_tasks_dispatched_total{queue=%q}", queue))
		m.queueMet[queue] = c
	}
	return c
}

// assignLocked reserves the worker and begins staging missing inputs.
func (m *Manager) assignLocked(rec *taskRecord, a sched.Assignment) {
	wid := a.Worker
	w := m.workers[wid]
	w.usedCores += rec.spec.Cores
	w.usedMemory += rec.spec.Memory
	rec.worker = wid
	wait := time.Duration(a.Wait)
	m.met.queueWait.Observe(wait.Seconds())
	m.queueCounterLocked(a.Queue).Inc()
	if m.rec != nil {
		reason := fmt.Sprintf("policy=%s queue=%s score=%g", m.sched.Policy().Name, a.Queue, a.Score)
		m.rec.Emit(obs.Event{Type: obs.EvSchedDecision, Task: rec.label(), Worker: w.name, Dur: wait, Detail: reason})
		m.rec.Emit(obs.Event{Type: obs.EvTaskDispatch, Task: rec.label(), Worker: w.name, Attempt: rec.retries, Dur: wait, Detail: reason})
	}
	if w.foreman {
		// Two-level placement: the root picked the shard; the foreman's own
		// scheduler picks the worker. No staging here — missing inputs ride
		// the lease as peer-transfer tickets the shard resolves itself.
		m.leaseLocked(rec, w)
		return
	}
	rec.pending = make(map[CacheName]bool)
	for _, in := range rec.spec.Inputs {
		if !w.cache[in.CacheName] {
			rec.pending[in.CacheName] = true
		}
	}
	if len(rec.pending) == 0 {
		m.dispatchLocked(rec)
		return
	}
	m.setTaskState(rec, TaskStaging)
	for name := range rec.pending {
		fs := m.files[name]
		fs.refWaiters = append(fs.refWaiters, rec)
		m.queueTransferLocked(name, wid)
	}
}

// queueTransferLocked picks a source for name→dest and either issues the
// put_url or defers it until the source has transfer capacity. At most one
// transfer per (file, destination) is ever outstanding: a second task
// staging the same input to the same worker rides the first transfer —
// onTransferDone unblocks every refWaiter on the pair. Issuing a duplicate
// put_url would race two concurrent fetches of one cachename on the
// worker, and a task dispatched against the first completion could read
// the file mid-rewrite by the second.
func (m *Manager) queueTransferLocked(name CacheName, dest int) {
	for _, tx := range m.queuedTx {
		if tx.name == name && tx.dest == dest {
			return
		}
	}
	if w := m.workers[dest]; w != nil {
		for _, sr := range w.pendingSources {
			if sr.name == name {
				return
			}
		}
	}
	src := m.pickSourceLocked(name, dest)
	m.queuedTx = append(m.queuedTx, pendingTransfer{name: name, dest: dest, source: src})
	m.pumpTransfersLocked()
}

// pickSourceLocked selects a replica to serve name to dest: with peer
// transfers on, the live worker replica with the least outbound load;
// otherwise (or if no worker has it) the manager (-1).
func (m *Manager) pickSourceLocked(name CacheName, dest int) int {
	fs := m.files[name]
	if fs == nil {
		return -1
	}
	if m.opts.PeerTransfers {
		best, bestLoad := -2, 1<<30
		ids := make([]int, 0, len(fs.workers))
		for wid := range fs.workers {
			ids = append(ids, wid)
		}
		sort.Ints(ids)
		for _, wid := range ids {
			if wid == dest {
				continue
			}
			if w := m.workers[wid]; w != nil && w.alive && w.outbound < bestLoad && m.replicaAddrLocked(w, name) != "" {
				best, bestLoad = wid, w.outbound
			}
		}
		if best >= 0 {
			return best
		}
	}
	if fs.onManager {
		return -1
	}
	// No manager copy: any live worker replica even without peer mode
	// (this is how results migrate when strictly necessary).
	ids := make([]int, 0, len(fs.workers))
	for wid := range fs.workers {
		ids = append(ids, wid)
	}
	sort.Ints(ids)
	for _, wid := range ids {
		if w := m.workers[wid]; w != nil && w.alive && wid != dest && m.replicaAddrLocked(w, name) != "" {
			return wid
		}
	}
	return -1
}

// pumpTransfersLocked issues queued transfers whose source has capacity.
func (m *Manager) pumpTransfersLocked() {
	var still []pendingTransfer
	for _, tx := range m.queuedTx {
		dw := m.workers[tx.dest]
		if dw == nil || !dw.alive {
			continue // destination died; staging failure handled by workerLost
		}
		fs := m.files[tx.name]
		if fs == nil {
			continue
		}
		// Re-validate the source each pump; it may have died.
		src := tx.source
		if src >= 0 {
			sw := m.workers[src]
			if sw == nil || !sw.alive || !sw.cache[tx.name] {
				src = m.pickSourceLocked(tx.name, tx.dest)
			}
		}
		var addr, extAddr string
		if src >= 0 {
			sw := m.workers[src]
			if sw.outbound >= transferCapPerSource {
				// Source busy: try another replica, else defer.
				alt := m.pickSourceLocked(tx.name, tx.dest)
				if alt != src && alt >= 0 && m.workers[alt].outbound < transferCapPerSource {
					src = alt
					addr = m.replicaAddrLocked(m.workers[alt], tx.name)
				} else if alt == -1 && fs.onManager {
					src = -1
				} else {
					tx.source = src
					still = append(still, tx)
					continue
				}
			}
			if addr == "" && src >= 0 {
				addr = m.replicaAddrLocked(m.workers[src], tx.name)
			}
		}
		if src < 0 {
			if fs.onManager {
				addr = m.ts.Addr()
			} else if extAddr = m.extAddrLocked(fs, tx.attempts); extAddr != "" {
				// A foreman staging a ticketed input: the bytes come from
				// outside this manager's own cluster, straight off the
				// source shard's worker.
				addr = extAddr
			} else {
				// Every replica vanished while the transfer sat queued.
				// The staging tasks waiting on it must not be left
				// parked: route them through the task-retry path, which
				// revives the producer (lineage rollback) and restages
				// once the file regenerates.
				for _, rec := range fs.refWaiters {
					if rec.worker == tx.dest && rec.state == TaskStaging && rec.pending[tx.name] {
						m.retryLocked(rec, fmt.Errorf("staging %s: no live replica", tx.name))
					}
				}
				continue
			}
		} else {
			m.workers[src].outbound++
		}
		srcName := "manager"
		if src >= 0 {
			srcName = m.workers[src].name
			m.met.peerTransfers.Inc()
			m.met.peerBytes.Add(fs.size)
		} else if extAddr != "" {
			srcName = extAddr
			m.met.peerTransfers.Inc()
			m.met.peerBytes.Add(fs.size)
		} else {
			m.met.managerTransfers.Inc()
			m.met.managerBytes.Add(fs.size)
		}
		m.rec.Emit(obs.Event{Type: obs.EvTransferStart, Src: srcName, Dst: dw.name, Bytes: fs.size, Detail: string(tx.name)})
		dw.conn.send(&message{Type: msgPutURL, PutURL: &putURLMsg{
			CacheName: string(tx.name), Addr: addr, Size: fs.size,
		}})
		// Remember who served it so capacity frees on completion.
		dw.pendingSources = append(dw.pendingSources, srcRecord{name: tx.name, source: src, extAddr: extAddr, attempts: tx.attempts, offload: tx.offload})
	}
	m.queuedTx = still
}

// srcRecord pairs an in-flight inbound transfer with the worker serving it
// and the attempt count carried over from the queued transfer. extAddr is
// set when the source is an external (cross-shard) address rather than a
// worker of this manager.
type srcRecord struct {
	name     CacheName
	source   int
	extAddr  string
	attempts int
	offload  bool
}

// dispatchLocked sends a fully-staged task to its worker.
func (m *Manager) dispatchLocked(rec *taskRecord) {
	if m.fenced {
		// Lease lost between staging and dispatch: the task stays parked;
		// the standby that owns the lease will run it from a resubmission.
		return
	}
	w := m.workers[rec.worker]
	m.observeTakeoverLocked()
	m.setTaskState(rec, TaskRunning)
	rec.handle.mu.Lock()
	if rec.handle.firstDispatch.IsZero() {
		rec.handle.firstDispatch = time.Now()
	}
	rec.handle.mu.Unlock()
	if d := m.deadlineFor(rec); d > 0 {
		rec.deadlineAt = time.Now().Add(d)
	} else {
		rec.deadlineAt = time.Time{}
	}
	m.rec.Emit(obs.Event{Type: obs.EvTaskStart, Task: rec.label(), Worker: w.name, Attempt: rec.retries})
	m.journalLocked(&journal.Record{Kind: journal.KindDispatch, TaskID: rec.id, Worker: w.name})
	d := &dispatchMsg{
		TaskID:  rec.id,
		Mode:    string(rec.spec.Mode),
		Library: rec.spec.Library,
		Func:    rec.spec.Func,
		Args:    rec.spec.Args,
		Cores:   rec.spec.Cores,
		Memory:  rec.spec.Memory,
	}
	for _, in := range rec.spec.Inputs {
		d.Inputs = append(d.Inputs, fileRefWire{Name: in.Name, CacheName: string(in.CacheName)})
	}
	for _, out := range rec.spec.Outputs {
		d.Outputs = append(d.Outputs, fileRefWire{Name: out, CacheName: string(rec.handle.outputs[out])})
	}
	m.controlFrameLocked()
	w.conn.send(&message{Type: msgDispatch, Dispatch: d})
}

// releaseWorkerLocked returns a task's cores, in both the manager's
// worker table and the scheduler's capacity index (a no-op there if the
// worker is already lost).
func (m *Manager) releaseWorkerLocked(rec *taskRecord) {
	if rec.worker >= 0 {
		if w := m.workers[rec.worker]; w != nil {
			w.usedCores -= rec.spec.Cores
			if w.usedCores < 0 {
				w.usedCores = 0
			}
			w.usedMemory -= rec.spec.Memory
			if w.usedMemory < 0 {
				w.usedMemory = 0
			}
		}
		m.sched.Release(rec.worker, rec.spec.Cores, rec.spec.Memory)
	}
	rec.worker = -1
	rec.pending = nil
}

// retryLocked requeues a task after a failure, up to MaxRetries. Every
// attempt's cause is retained (bounded by failLimit) so the terminal
// error reports the whole history, not just the last straw. Requeues
// are delayed by exponential backoff with jitter so a flapping worker
// or transient network fault isn't hammered at full rate.
func (m *Manager) retryLocked(rec *taskRecord, cause error) {
	worker := ""
	if rec.worker >= 0 {
		if w := m.workers[rec.worker]; w != nil {
			worker = w.name
		}
	}
	m.releaseWorkerLocked(rec)
	rec.retries++
	terminal := rec.retries > m.opts.MaxRetries
	var delay time.Duration
	if !terminal {
		delay = m.nextBackoffLocked(rec.retries)
	}
	m.recordFailureLocked(rec, TaskFailure{
		Attempt: rec.retries, Worker: worker, Cause: cause.Error(), Backoff: delay,
	})
	m.rec.Emit(obs.Event{Type: obs.EvTaskRetry, Task: rec.label(), Worker: worker, Attempt: rec.retries, Dur: delay, Detail: cause.Error()})
	if terminal {
		m.failLocked(rec, fmt.Errorf("vine: task %d failed after %d retries: %w (history: %s)",
			rec.id, rec.retries-1, cause, strings.Join(formatFailures(rec.failures), "; ")))
		return
	}
	m.met.retries.Inc()
	if m.inputsAvailableLocked(rec) {
		m.requeueLocked(rec, delay)
	} else {
		m.setTaskState(rec, TaskWaiting)
		m.reviveProducersLocked(rec)
	}
}

// recordFailureLocked retains one attempt's failure (first failLimit kept)
// and mirrors the history into the handle.
func (m *Manager) recordFailureLocked(rec *taskRecord, f TaskFailure) {
	if len(rec.failures) < m.failLimit {
		rec.failures = append(rec.failures, f)
	}
	rec.handle.mu.Lock()
	rec.handle.retries = rec.retries
	rec.handle.failures = rec.failures
	rec.handle.mu.Unlock()
}

// nextBackoffLocked computes the jittered delay before retry attempt n:
// base·2^(n-1) clamped to max, then jittered into [d/2, d) from the
// manager's seeded stream. Base <= 0 disables backoff.
func (m *Manager) nextBackoffLocked(attempt int) time.Duration {
	if m.backoffBase <= 0 {
		return 0
	}
	d := m.backoffBase
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= m.backoffMax {
			d = m.backoffMax
			break
		}
	}
	if d > m.backoffMax {
		d = m.backoffMax
	}
	half := d / 2
	return half + time.Duration(m.rng.Float64()*float64(half))
}

// requeueLocked returns a task to the ready queue, immediately or after
// the backoff delay. A delayed task sits in TaskReady but off the queue
// until its timer fires; intervening events (worker loss invalidating
// inputs, straggler success) cancel the requeue via the state check.
func (m *Manager) requeueLocked(rec *taskRecord, delay time.Duration) {
	if delay <= 0 {
		m.enqueueReadyLocked(rec)
		return
	}
	m.setTaskState(rec, TaskReady)
	id := rec.id
	time.AfterFunc(delay, func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		if m.stopped {
			return
		}
		rec := m.tasks[id]
		if rec == nil || rec.state != TaskReady {
			return
		}
		// Enqueue dedups on the task record, so a task that was already
		// requeued by an intervening event is left alone.
		m.enqueueReadyLocked(rec)
		m.scheduleLocked()
	})
}

func (m *Manager) failLocked(rec *taskRecord, err error) {
	m.setTaskState(rec, TaskFailed)
	m.met.tasksFailed.Inc()
	m.rec.Emit(obs.Event{Type: obs.EvTaskFail, Task: rec.label(), Detail: err.Error()})
	m.journalLocked(&journal.Record{Kind: journal.KindTaskFail, TaskID: rec.id, Error: err.Error()})
	rec.handle.mu.Lock()
	rec.handle.err = err
	notified := rec.handle.notified
	rec.handle.notified = true
	rec.handle.mu.Unlock()
	if !notified {
		close(rec.handle.doneC)
	}
	m.completed = append(m.completed, rec.id)
	m.notifyLocked()
}

// recoverFileLocked is the lineage rollback: when every replica of name
// is gone, re-enqueue its producer — the live-plane mirror of
// dag.Tracker.Invalidate — so the file regenerates under the same
// content-addressed cachename. Reports whether regeneration is underway
// (or the file turned out to have a live source after all); false means
// the file is unrecoverable — a declared file with no producer, or a
// producer that failed terminally.
func (m *Manager) recoverFileLocked(name CacheName) bool {
	if m.hasSourceLocked(name) {
		return true
	}
	fs := m.files[name]
	if fs == nil || fs.producer < 0 {
		return false
	}
	prod := m.tasks[fs.producer]
	if prod == nil {
		return false
	}
	switch prod.state {
	case TaskDone:
		// Roll the completed producer back to the queue. Its handle stays
		// done — downstream consumers only need the bytes back.
		m.met.lineageReruns.Inc()
		m.rec.Emit(obs.Event{Type: obs.EvLineageRollback, Task: prod.label(), Detail: string(name)})
		if m.inputsAvailableLocked(prod) {
			m.enqueueReadyLocked(prod)
		} else {
			// The producer's own inputs are gone too: recurse up the chain.
			m.setTaskState(prod, TaskWaiting)
			m.reviveProducersLocked(prod)
		}
		return true
	case TaskWaiting, TaskReady, TaskStaging, TaskRunning:
		return true // already on its way
	}
	return false // TaskFailed
}

// reviveProducersLocked re-enqueues done tasks whose outputs a waiting task
// needs but which no longer exist anywhere (lost to preemption). Recurses
// up the producer chain as needed.
func (m *Manager) reviveProducersLocked(rec *taskRecord) {
	for _, in := range rec.spec.Inputs {
		if m.hasSourceLocked(in.CacheName) {
			continue
		}
		fs := m.files[in.CacheName]
		if fs == nil || fs.producer < 0 {
			if fs != nil && fs.wasExt {
				// A foreman's ticketed input whose external sources are all
				// exhausted or quarantined: this manager never had the
				// producer, so waiting is hopeless. Fail fast — the lease
				// failure (with its Lost report) sends the root up its own
				// lineage ladder, which re-runs the producer shard-side.
				m.failLocked(rec, fmt.Errorf("vine: external input %s lost (sources exhausted)", in.CacheName))
				return
			}
			continue // declared file with no source: unrecoverable here
		}
		if m.tasks[fs.producer] == nil {
			continue
		}
		if !m.recoverFileLocked(in.CacheName) {
			m.failLocked(rec, fmt.Errorf("vine: input %s lost and its producer failed", in.CacheName))
		}
	}
}

// promoteWaitersLocked moves Waiting tasks whose inputs are now all
// available to Ready. It walks only the waiting index — completions are
// the hot path, and scanning every record (mostly Done late in a run)
// per completion made busy managers quadratic in workload size.
func (m *Manager) promoteWaitersLocked() {
	for _, rec := range m.waiting {
		if m.inputsAvailableLocked(rec) {
			m.enqueueReadyLocked(rec)
		}
	}
}

// ---- event handlers ----

func (m *Manager) onTaskDone(wid int, msg *taskDoneMsg) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.controlFrameLocked()
	m.onTaskDoneLocked(wid, msg)
}

// controlFrameLocked charges the modelled per-control-frame cost inside
// the manager lock, serializing frame handling the way a production
// manager's single-threaded event loop does. A no-op unless the manager
// was built WithControlOverhead.
func (m *Manager) controlFrameLocked() {
	if m.ctrlOverhead > 0 {
		time.Sleep(m.ctrlOverhead)
	}
}

// onTaskDoneLocked folds one completion into the task and replica tables —
// the worker recv loop calls it through onTaskDone, a foreman report calls
// it once per aggregated lease result (requires m.mu).
func (m *Manager) onTaskDoneLocked(wid int, msg *taskDoneMsg) {
	rec := m.tasks[msg.TaskID]
	if rec == nil {
		return
	}
	// A result is acceptable from the primary attempt, or — first result
	// wins — from a fast-aborted straggler still running speculatively
	// while the task is queued, staging, or re-running elsewhere.
	primary := rec.state == TaskRunning && rec.worker == wid
	straggler := rec.isStraggler(wid) &&
		(rec.state == TaskReady || rec.state == TaskWaiting ||
			rec.state == TaskStaging || rec.state == TaskRunning)
	if !primary && !straggler {
		return // stale completion from a worker we already gave up on
	}
	w := m.workers[wid]
	if !msg.OK {
		if !primary {
			// The speculative copy failed; the requeued attempt carries on.
			delete(rec.stragglers, wid)
			return
		}
		m.retryLocked(rec, fmt.Errorf("%s", msg.Error))
		m.scheduleLocked()
		return
	}
	if !primary {
		// The straggler beat its replacement: drop the requeued attempt.
		m.sched.Dequeue(rec.label())
	}
	rec.stragglers = nil
	m.releaseWorkerLocked(rec)
	wasDone := rec.handle.notified
	m.setTaskState(rec, TaskDone)
	// Record output replicas on the executing worker.
	for cnStr, size := range msg.OutputSizes {
		cn := CacheName(cnStr)
		fs := m.files[cn]
		if fs == nil {
			fs = &fileState{workers: make(map[int]bool), producer: rec.id}
			m.files[cn] = fs
		}
		fs.size = size
		fs.workers[wid] = true
		if w != nil {
			w.cache[cn] = true
			w.cacheBytes += size
		}
		m.sched.FileCached(wid, cnStr, size)
	}
	// Emit before releasing the handle, as failLocked does, so a trace
	// read after Wait returns holds the completion.
	m.rec.Emit(obs.Event{
		Type: obs.EvTaskDone, Task: rec.label(), Worker: workerNameOf(w),
		Attempt: rec.retries, Dur: time.Duration(msg.ExecNanos),
	})
	if !wasDone {
		m.met.tasksDone.Inc()
		if w != nil {
			w.doneCount++
		}
		m.met.execSeconds.Observe(time.Duration(msg.ExecNanos).Seconds())
		rec.handle.mu.Lock()
		rec.handle.execTime = time.Duration(msg.ExecNanos)
		rec.handle.setup = time.Duration(msg.SetupNanos)
		rec.handle.worker = workerNameOf(w)
		rec.handle.notified = true
		rec.handle.mu.Unlock()
		close(rec.handle.doneC)
		m.completed = append(m.completed, rec.id)
		m.journalLocked(&journal.Record{
			Kind: journal.KindTaskDone, TaskID: rec.id, Worker: workerNameOf(w),
			OutputSizes: msg.OutputSizes, ExecNanos: msg.ExecNanos, SetupNanos: msg.SetupNanos,
		})
		m.maybeCompactJournalLocked()
	}
	// Wake waiters even on a lineage re-run (wasDone): the fresh replica
	// is what a parked FetchBytes recovery loop is waiting for.
	m.notifyLocked()
	if m.opts.ReturnOutputs && w != nil && !w.foreman {
		// Foreman outputs are pulled through their reported shard addresses
		// (FetchBytes path), not the foreman's control link.
		addr, wname := w.transferAddr, w.name
		for cnStr := range msg.OutputSizes {
			cn := CacheName(cnStr)
			go m.pullToManager(addr, wname, cn)
		}
	}
	if m.opts.ReplicateOutputs > 1 {
		for cnStr := range msg.OutputSizes {
			m.replicateLocked(CacheName(cnStr))
		}
	}
	m.promoteWaitersLocked()
	m.scheduleLocked()
}

// replicateLocked tops a file up to the configured replica count by queuing
// peer transfers to live workers that lack it.
func (m *Manager) replicateLocked(cn CacheName) {
	fs := m.files[cn]
	if fs == nil {
		return
	}
	have := 0
	for wid := range fs.workers {
		if w := m.workers[wid]; w != nil && w.alive {
			have++
		}
	}
	need := m.opts.ReplicateOutputs - have
	if need <= 0 {
		return
	}
	// Preemption-aware target order: stable workers first, preemptible
	// ones only when no stable worker can take a copy, draining workers
	// never — so with at least one stable worker in the pool, a hot file's
	// replica set is never exclusively on workers that may vanish. Within
	// each pass the scheduler's sorted live-worker id slice keeps the
	// choice deterministic with no per-call rebuild+sort.
	for pass := 0; pass < 2 && need > 0; pass++ {
		for _, id := range m.sched.WorkerIDs() {
			if need == 0 {
				break
			}
			w := m.workers[id]
			if w == nil || !w.alive || w.draining || w.foreman || w.cache[cn] {
				continue
			}
			if (pass == 0) == w.preemptible {
				continue // pass 0: stable only; pass 1: preemptible only
			}
			m.queueTransferLocked(cn, id)
			need--
		}
	}
}

// pullToManager copies a task output into the manager's own store (the Work
// Queue data path). Runs outside the lock; failures are benign — the worker
// replica remains the source.
func (m *Manager) pullToManager(addr, worker string, cn CacheName) {
	data, err := m.nc.fetchBytes(addr, cn, "manager/fetch")
	if err != nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	fs := m.files[cn]
	if fs == nil || fs.onManager {
		return
	}
	fs.onManager = true
	fs.mgrData = data
	fs.size = int64(len(data))
	m.met.managerBytes.Add(fs.size)
	m.rec.Emit(obs.Event{Type: obs.EvTransferStart, Src: worker, Dst: "manager", Bytes: fs.size, Detail: string(cn)})
	m.promoteWaitersLocked()
	m.scheduleLocked()
}

func workerNameOf(w *workerState) string {
	if w == nil {
		return ""
	}
	return w.name
}

func (m *Manager) onTransferDone(wid int, msg *transferDoneMsg) {
	m.mu.Lock()
	defer m.mu.Unlock()
	w := m.workers[wid]
	if w == nil {
		return
	}
	name := CacheName(msg.CacheName)
	// Free the source's outbound slot, remembering who served the transfer
	// and how many attempts this file has burned reaching this worker.
	srcName, srcID, extAddr, attempts, offload := "manager", -1, "", 0, false
	for i, sr := range w.pendingSources {
		if sr.name == name {
			srcID, extAddr, attempts, offload = sr.source, sr.extAddr, sr.attempts, sr.offload
			if sr.source >= 0 {
				if sw := m.workers[sr.source]; sw != nil {
					srcName = sw.name
					if sw.outbound > 0 {
						sw.outbound--
					}
				}
			} else if sr.extAddr != "" {
				srcName = sr.extAddr
			}
			w.pendingSources = append(w.pendingSources[:i], w.pendingSources[i+1:]...)
			break
		}
	}
	fs := m.files[name]
	if msg.OK {
		m.rec.Emit(obs.Event{Type: obs.EvTransferDone, Src: srcName, Dst: w.name, Bytes: msg.Size, Detail: string(name)})
		if offload {
			// A sole-replica copy escaped a draining worker intact: the
			// file now survives the preemption without a lineage re-run.
			m.met.soleOffloads.Inc()
			m.rec.Emit(obs.Event{Type: obs.EvWorkerDrain, Worker: srcName, Detail: "offloaded " + string(name) + " to " + w.name})
		}
		if fs != nil {
			if msg.Size > 0 {
				fs.size = msg.Size
			}
			fs.workers[wid] = true
		}
		w.cache[name] = true
		if fs != nil {
			w.cacheBytes += fs.size
			m.sched.FileCached(wid, string(name), fs.size)
		}
		// Unblock staging tasks on this worker waiting for the file.
		if fs != nil {
			var stillWaiting []*taskRecord
			for _, rec := range fs.refWaiters {
				if rec.worker == wid && rec.state == TaskStaging && rec.pending[name] {
					delete(rec.pending, name)
					if len(rec.pending) == 0 {
						m.dispatchLocked(rec)
					}
				} else if rec.state == TaskStaging && rec.pending[name] {
					stillWaiting = append(stillWaiting, rec)
				}
			}
			fs.refWaiters = stillWaiting
		}
	} else {
		// Transfer failed. The recovery ladder: a corrupt payload first
		// quarantines the serving replica; then, while attempts remain and
		// a clean source still exists, the transfer fails over to another
		// replica without burning a task retry; only when the ladder is
		// exhausted do the waiting tasks take a retry — which itself falls
		// through to lineage rollback if no source remains.
		if msg.Corrupt {
			m.met.corruptTransfers.Inc()
			m.rec.Emit(obs.Event{Type: obs.EvFileCorrupt, Src: srcName, Dst: w.name, Detail: string(name) + ": " + msg.Error})
			if extAddr != "" {
				m.quarantineExternalLocked(name, extAddr)
			} else {
				m.quarantineReplicaLocked(name, srcID)
			}
		}
		var victims []*taskRecord
		if fs != nil {
			for _, rec := range fs.refWaiters {
				if rec.worker == wid && rec.state == TaskStaging && rec.pending[name] {
					victims = append(victims, rec)
				}
			}
		}
		if len(victims) > 0 && attempts+1 < maxTransferAttempts && m.hasSourceLocked(name) {
			m.queuedTx = append(m.queuedTx, pendingTransfer{
				name: name, dest: wid, source: m.pickSourceLocked(name, wid), attempts: attempts + 1,
			})
		} else {
			for _, rec := range victims {
				m.retryLocked(rec, fmt.Errorf("staging %s: %s", name, msg.Error))
			}
		}
	}
	m.pumpTransfersLocked()
	m.scheduleLocked()
}

// quarantineReplicaLocked removes a replica that served bytes failing
// their checksum: the manager stops counting the copy, the scheduler's
// file index forgets it, and the holder is told to unlink it so the bad
// bytes can't resurface as a future source. A manager-store source (-1)
// is left alone — its copy is re-read from disk or memory on the next
// fetch, so an in-flight corruption clears itself on retry.
func (m *Manager) quarantineReplicaLocked(name CacheName, src int) {
	if src < 0 {
		return
	}
	fs := m.files[name]
	if fs != nil {
		delete(fs.workers, src)
	}
	sw := m.workers[src]
	if sw == nil {
		return
	}
	if sw.cache[name] {
		delete(sw.cache, name)
		if fs != nil {
			sw.cacheBytes -= fs.size
			if sw.cacheBytes < 0 {
				sw.cacheBytes = 0
			}
		}
	}
	m.sched.FileEvicted(src, string(name))
	if sw.alive {
		sw.conn.send(&message{Type: msgUnlink, Unlink: &unlinkMsg{CacheName: string(name)}})
	}
}

// onEvicted records that a worker dropped a cached file under disk
// pressure: the replica table and scheduler index stop counting the
// copy, staging tasks that believed the file was already local get it
// re-staged, and ready tasks whose last source vanished fall back to
// producer revival — the file degrades to a transfer, not a failure.
func (m *Manager) onEvicted(wid int, msg *evictedMsg) {
	m.mu.Lock()
	defer m.mu.Unlock()
	w := m.workers[wid]
	if w == nil {
		return
	}
	name := CacheName(msg.CacheName)
	if w.cache[name] {
		delete(w.cache, name)
		w.cacheBytes -= msg.Size
	}
	m.sched.FileEvicted(wid, string(name))
	fs := m.files[name]
	if fs == nil {
		return
	}
	delete(fs.workers, wid)
	// Staging tasks on this worker that already counted the file as
	// local must fetch it again before dispatch.
	for _, rec := range m.tasks {
		if rec.worker != wid || rec.state != TaskStaging || rec.pending[name] {
			continue
		}
		for _, in := range rec.spec.Inputs {
			if in.CacheName == name {
				rec.pending[name] = true
				fs.refWaiters = append(fs.refWaiters, rec)
				m.queueTransferLocked(name, wid)
				break
			}
		}
	}
	// If the eviction removed the last live source, queued consumers
	// wait for a producer re-run instead of staging from nowhere.
	if !m.hasSourceLocked(name) {
		for _, rec := range m.tasks {
			if rec.state == TaskReady && !m.inputsAvailableLocked(rec) {
				m.sched.Dequeue(rec.label())
				m.setTaskState(rec, TaskWaiting)
				m.reviveProducersLocked(rec)
			}
		}
	}
}

// onDraining handles a worker's preemption notice: the scheduler stops
// assigning it work (DrainFilter), its staged-but-not-running tasks move
// back to the queue without burning a retry, and its sole-replica cache
// entries are evacuated to stable peers. Running tasks are left alone —
// they may finish inside the grace window; if they don't, the worker's
// own grace timer turns the drain into an ordinary worker loss and the
// recovery ladder takes over.
func (m *Manager) onDraining(wid int, msg *drainingMsg) {
	m.mu.Lock()
	defer m.mu.Unlock()
	w := m.workers[wid]
	if w == nil || !w.alive || w.draining {
		return
	}
	grace := time.Duration(msg.GraceNanos)
	w.draining = true
	w.drainDeadline = time.Now().Add(grace)
	m.sched.SetWorkerAttrs(wid, w.preemptible, true)
	m.met.preemptions.Inc()
	m.rec.Emit(obs.Event{Type: obs.EvWorkerPreempt, Worker: w.name, Dur: grace, Detail: "drain notice; evacuating"})

	// Drop queued transfers headed to the drainer; the staging tasks they
	// served are requeued below. (An offload from another drainer that
	// picked this worker as its destination is re-queued by the next
	// monitor sweep against a still-stable peer.)
	var still []pendingTransfer
	for _, tx := range m.queuedTx {
		if tx.dest != wid {
			still = append(still, tx)
		}
	}
	m.queuedTx = still

	// Requeue staged-but-not-running tasks assigned to the drainer. They
	// haven't started, so moving them costs only the staging already done —
	// this is placement churn, not a task fault, so no retry is burned.
	for _, rec := range m.tasks {
		if rec.worker != wid || rec.state != TaskStaging {
			continue
		}
		m.releaseWorkerLocked(rec)
		if m.inputsAvailableLocked(rec) {
			m.enqueueReadyLocked(rec)
		} else {
			m.setTaskState(rec, TaskWaiting)
			m.reviveProducersLocked(rec)
		}
	}

	m.offloadSoleReplicasLocked(w)
	m.pumpTransfersLocked()
	m.scheduleLocked()
	m.notifyLocked()
}

// soleReplicasLocked lists the drainer's cache entries whose only live
// copy is on the drainer itself (no other live holder, no manager copy,
// and no transfer already moving it somewhere else) — the files that
// would cost a lineage rollback if the worker vanished now.
func (m *Manager) soleReplicasLocked(w *workerState) []CacheName {
	var sole []CacheName
	for cn := range w.cache {
		fs := m.files[cn]
		if fs == nil || fs.onManager {
			continue
		}
		safe := false
		for wid := range fs.workers {
			if wid == w.id {
				continue
			}
			if ow := m.workers[wid]; ow != nil && ow.alive {
				safe = true
				break
			}
		}
		if safe {
			continue
		}
		// A copy already in flight to another worker counts as covered.
		for _, tx := range m.queuedTx {
			if tx.name == cn && tx.dest != w.id {
				safe = true
				break
			}
		}
		if !safe {
			for wid, ow := range m.workers {
				if wid == w.id || !ow.alive {
					continue
				}
				for _, sr := range ow.pendingSources {
					if sr.name == cn {
						safe = true
						break
					}
				}
				if safe {
					break
				}
			}
		}
		if !safe {
			sole = append(sole, cn)
		}
	}
	sort.Slice(sole, func(i, j int) bool { return sole[i] < sole[j] })
	return sole
}

// offloadSoleReplicasLocked queues an evacuation transfer for every
// sole-replica file on a draining worker, preferring stable peers over
// preemptible ones (never another drainer). With no eligible peer at all
// the copy is pulled to the manager's own store instead, so a one-worker
// pool still drains clean when the bytes fit. Idempotent: files already
// covered by an in-flight or queued copy are skipped, so the monitor
// sweep can re-invoke it until the worker is clean.
func (m *Manager) offloadSoleReplicasLocked(w *workerState) {
	for _, cn := range m.soleReplicasLocked(w) {
		dest := -1
		for pass := 0; pass < 2 && dest < 0; pass++ {
			for _, id := range m.sched.WorkerIDs() {
				ow := m.workers[id]
				if id == w.id || ow == nil || !ow.alive || ow.draining || ow.foreman || ow.cache[cn] {
					continue
				}
				if (pass == 0) == ow.preemptible {
					continue // pass 0: stable only; pass 1: preemptible only
				}
				dest = id
				break
			}
		}
		if dest < 0 {
			if w.transferAddr != "" {
				go m.pullToManager(w.transferAddr, w.name, cn)
			}
			continue
		}
		m.rec.Emit(obs.Event{Type: obs.EvWorkerDrain, Worker: w.name, Detail: "offload " + string(cn) + " to " + m.workers[dest].name})
		m.queuedTx = append(m.queuedTx, pendingTransfer{name: cn, dest: dest, source: w.id, offload: true})
	}
}

// releaseDrainersLocked runs on every monitor sweep: it re-attempts
// pending evacuations and, once a draining worker holds nothing of value
// — no staged or running tasks, no sole-replica files, no transfers in
// or out — answers its notice with drain_done so the worker can exit
// cleanly inside its grace window. The connection is NOT closed manager-
// side: conn.close drops queued messages, and the worker's own exit is
// what tears the link down after drain_done arrives.
func (m *Manager) releaseDrainersLocked() {
	pump := false
	for wid, w := range m.workers {
		if !w.alive || !w.draining || w.drainReleased {
			continue
		}
		m.offloadSoleReplicasLocked(w)
		pump = true
		if w.outbound > 0 || len(w.pendingSources) > 0 {
			continue
		}
		busy := false
		for _, rec := range m.tasks {
			if rec.worker == wid && (rec.state == TaskStaging || rec.state == TaskRunning) {
				busy = true
				break
			}
		}
		if busy {
			continue
		}
		if len(m.soleReplicasLocked(w)) > 0 {
			continue
		}
		queued := false
		for _, tx := range m.queuedTx {
			if tx.dest == wid || tx.source == wid {
				queued = true
				break
			}
		}
		if queued {
			continue
		}
		w.drainReleased = true
		m.rec.Emit(obs.Event{Type: obs.EvWorkerDrain, Worker: w.name, Detail: "released: drained clean"})
		w.conn.send(&message{Type: msgDrainDone})
	}
	if pump {
		m.pumpTransfersLocked()
		m.scheduleLocked()
	}
}

// workerLost handles a disconnect: replicas vanish, its tasks requeue, and
// lost outputs trigger producer re-runs.
func (m *Manager) workerLost(wid int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.workerLostLocked(wid)
}

// workerLostLocked is workerLost with m.mu held — shared by the recv loop
// (TCP error) and the heartbeat monitor (silence without a TCP error).
func (m *Manager) workerLostLocked(wid int) {
	w := m.workers[wid]
	if w == nil || !w.alive {
		return
	}
	w.alive = false
	w.conn.close()
	m.sched.WorkerLost(wid)
	m.met.workersLost.Inc()
	m.met.poolSize.Set(int64(m.liveWorkersLocked()))
	if w.foreman {
		m.met.foremenActive.Set(int64(m.foremenActiveLocked()))
		w.shardAddr = nil
		w.leaseBuf = nil
		w.backlog = 0
	}
	m.rec.Emit(obs.Event{Type: obs.EvWorkerLost, Worker: w.name})

	// Free outbound slots of sources serving this worker.
	for _, sr := range w.pendingSources {
		if sr.source >= 0 {
			if sw := m.workers[sr.source]; sw != nil && sw.outbound > 0 {
				sw.outbound--
			}
		}
	}
	w.pendingSources = nil

	// Drop its replicas — sweeping the whole replica table, not just the
	// worker's own cache view, so no fileState can keep listing the dead
	// worker and pickSourceLocked can never hand it out between the
	// heartbeat miss and cleanup.
	for _, fs := range m.files {
		delete(fs.workers, wid)
	}
	w.cache = make(map[CacheName]bool)
	w.cacheBytes = 0

	// Requeue its staging/running tasks; forget any speculative copy it
	// was still running.
	for _, rec := range m.tasks {
		delete(rec.stragglers, wid)
		if (rec.state == TaskStaging || rec.state == TaskRunning) && rec.worker == wid {
			m.retryLocked(rec, fmt.Errorf("worker %s lost", w.name))
		}
	}

	// Tasks anywhere that now reference sourceless inputs must wait and
	// revive producers.
	for _, rec := range m.tasks {
		if rec.state == TaskReady && !m.inputsAvailableLocked(rec) {
			m.sched.Dequeue(rec.label())
			m.setTaskState(rec, TaskWaiting)
			m.reviveProducersLocked(rec)
		}
		if rec.state == TaskWaiting {
			m.reviveProducersLocked(rec)
		}
	}
	m.pumpTransfersLocked()
	m.scheduleLocked()
	m.notifyLocked()
}

// WaitAny blocks until some task completes (or fails terminally) that has
// not been returned before, or the timeout elapses (0 = forever). It
// returns the task's handle. Completions wake it through the manager's
// change broadcast — no polling, timed or not.
func (m *Manager) WaitAny(timeout time.Duration) (*TaskHandle, error) {
	var deadline <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		deadline = t.C
	}
	for {
		m.mu.Lock()
		if len(m.completed) > 0 {
			id := m.completed[0]
			m.completed = m.completed[1:]
			h := m.tasks[id].handle
			m.mu.Unlock()
			return h, nil
		}
		if m.stopped {
			m.mu.Unlock()
			return nil, fmt.Errorf("vine: manager stopped")
		}
		ch := m.change
		m.mu.Unlock()
		select {
		case <-ch:
		case <-deadline:
			return nil, fmt.Errorf("vine: WaitAny timed out after %v", timeout)
		}
	}
}

// WorkerInfo is an operational snapshot of one connected worker.
type WorkerInfo struct {
	Name         string
	TransferAddr string
	Cores        int
	UsedCores    int
	Memory       int64
	UsedMemory   int64
	CachedFiles  int
	CacheBytes   int64
	Outbound     int
	Alive        bool
	Preemptible  bool
	Draining     bool
}

// Workers snapshots all known workers (including lost ones), sorted by
// name, for status displays and tests.
func (m *Manager) Workers() []WorkerInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]WorkerInfo, 0, len(m.workers))
	for _, w := range m.workers {
		out = append(out, WorkerInfo{
			Name:         w.name,
			TransferAddr: w.transferAddr,
			Cores:        w.cores,
			UsedCores:    w.usedCores,
			Memory:       w.memory,
			UsedMemory:   w.usedMemory,
			CachedFiles:  len(w.cache),
			CacheBytes:   w.cacheBytes,
			Outbound:     w.outbound,
			Alive:        w.alive,
			Preemptible:  w.preemptible,
			Draining:     w.draining,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// TaskCounts reports how many tasks sit in each state.
func (m *Manager) TaskCounts() map[TaskState]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[TaskState]int)
	for _, rec := range m.tasks {
		out[rec.state]++
	}
	return out
}
