package vine

import (
	"net"
	"time"

	"hepvine/internal/journal"
	"hepvine/internal/obs"
	"hepvine/internal/sched"
)

// Option configures a Manager or a Worker. One option vocabulary serves
// both constructors — options that don't apply to the component being
// built are simply ignored, so shared setup code can pass one option
// slice to both sides of a cluster.
type Option func(*config)

// NetFaultInjector wraps live connections and listeners for fault
// injection. internal/chaos.Plan implements it; production clusters
// leave it nil and pay nothing.
type NetFaultInjector interface {
	WrapConn(c net.Conn, label string) net.Conn
	WrapListener(ln net.Listener, label string) net.Listener
}

// Liveness and retry-policy defaults. The heartbeat detects workers that
// are silent-but-connected (stalled WAN link, frozen node) without
// waiting for a TCP error that an ESTABLISHED-but-dead session may never
// produce.
const (
	dialTimeout              = 30 * time.Second // every outbound TCP dial
	defaultTransferTimeout   = 5 * time.Minute
	defaultHeartbeatInterval = 2 * time.Second
	defaultHeartbeatTimeout  = 8 * time.Second
	defaultBackoffBase       = 20 * time.Millisecond
	defaultBackoffMax        = 2 * time.Second
	defaultRecoveryTimeout   = 30 * time.Second

	// defaultOrphanTTL bounds how long a persistent-cache entry no manager
	// has reclaimed survives before the worker GCs it. Mirrored as
	// params.DefaultOrphanTTL.
	defaultOrphanTTL = 10 * time.Minute
	// defaultJournalCompactEvery is how many task completions the manager
	// journals between snapshot compactions. Mirrored as
	// params.DefaultJournalCompactEvery.
	defaultJournalCompactEvery = 512

	// defaultDrainGrace is the grace window a preempted worker assumes when
	// the preemption notice names none (SIGTERM carries no deadline):
	// enough for in-flight analysis chunks to finish and sole-replica
	// intermediates to offload. Mirrored as params.DefaultDrainGrace.
	defaultDrainGrace = 30 * time.Second
)

// config is the merged pre-construction state for both constructors.
type config struct {
	mgr            managerOptions
	wrk            workerOptions
	rec            *obs.Recorder
	failureHistory int

	// Shared network plumbing.
	transferTimeout time.Duration
	inject          NetFaultInjector

	// Liveness.
	hbInterval time.Duration
	hbTimeout  time.Duration

	// Modelled per-control-frame cost (see WithControlOverhead).
	controlOverhead time.Duration

	// Manager retry/deadline/recovery policy.
	backoffBase     time.Duration
	backoffMax      time.Duration
	retrySeed       uint64
	taskDeadline    time.Duration
	recoveryTimeout time.Duration

	// Scheduling policy and tenant queues.
	schedPolicy *sched.Policy
	queues      []sched.QueueConfig

	// Durability: the run journal and the manager's listen address (a
	// restarted manager must rebind the address its workers reconnect to).
	jr                  *journal.Journal
	journalCompactEvery int
	listenAddr          string

	// Availability: the leadership lease, a standby's pre-built journal
	// fold, and the takeover provenance (see ha.go and internal/ha).
	lease         Lease
	replayState   *ReplayState
	takeoverFrom  time.Time
	takeoverEpoch uint64
}

func buildConfig(opts []Option) config {
	c := config{
		failureHistory:      defaultFailureHistory,
		transferTimeout:     defaultTransferTimeout,
		hbInterval:          defaultHeartbeatInterval,
		hbTimeout:           defaultHeartbeatTimeout,
		backoffBase:         defaultBackoffBase,
		backoffMax:          defaultBackoffMax,
		retrySeed:           1,
		recoveryTimeout:     defaultRecoveryTimeout,
		journalCompactEvery: defaultJournalCompactEvery,
	}
	for _, o := range opts {
		o(&c)
	}
	return c
}

// netConfig carries the dial/IO policy into the data plane.
func (c config) netConfig() netConfig {
	return netConfig{
		ioTimeout: c.transferTimeout,
		inject:    c.inject,
	}
}

// WithPeerTransfers toggles worker-to-worker staging (manager). Off,
// every input is served from the manager — the Work Queue data path.
func WithPeerTransfers(on bool) Option {
	return func(c *config) { c.mgr.PeerTransfers = on }
}

// WithMaxRetries bounds per-task re-dispatches after worker failures or
// transfer errors (manager; default 5).
func WithMaxRetries(n int) Option {
	return func(c *config) { c.mgr.MaxRetries = n }
}

// WithReturnOutputs streams every task output back to the manager's own
// store — the Work Queue data flow (manager).
func WithReturnOutputs(on bool) Option {
	return func(c *config) { c.mgr.ReturnOutputs = on }
}

// WithReplication keeps up to n worker replicas of every task output
// (manager; 0 or 1 disables replication).
func WithReplication(n int) Option {
	return func(c *config) { c.mgr.ReplicateOutputs = n }
}

// WithLibrary installs a registered library on every worker, with
// import hoisting on or off (manager; repeatable).
func WithLibrary(name string, hoist bool) Option {
	return func(c *config) {
		c.mgr.InstallLibraries = append(c.mgr.InstallLibraries, LibrarySpec{Name: name, Hoist: hoist})
	}
}

// WithRecorder attaches an obs.Recorder; the component emits lifecycle
// events into it (both). A nil recorder leaves tracing disabled.
func WithRecorder(r *obs.Recorder) Option {
	return func(c *config) { c.rec = r }
}

// WithFailureHistory bounds how many per-attempt failure causes the
// manager retains per task for the terminal error and
// TaskHandle.FailureHistory (manager; default 8, minimum 1).
func WithFailureHistory(n int) Option {
	return func(c *config) {
		if n < 1 {
			n = 1
		}
		c.failureHistory = n
	}
}

// WithName sets the worker's name (worker; default autogenerated) or the
// shard name a foreman registers under (foreman; default "foreman").
func WithName(name string) Option {
	return func(c *config) { c.wrk.Name = name }
}

// WithCores advertises execution slots (worker; default 1) or a shard's
// aggregate cores (foreman).
func WithCores(n int) Option {
	return func(c *config) { c.wrk.Cores = n }
}

// WithMemory advertises RAM in bytes (worker, or a shard's aggregate for
// a foreman; 0 = unlimited).
func WithMemory(bytes int64) Option {
	return func(c *config) { c.wrk.Memory = bytes }
}

// WithCacheDir sets the worker cache directory (worker; default a fresh
// temp dir).
func WithCacheDir(dir string) Option {
	return func(c *config) { c.wrk.Dir = dir }
}

// WithDiskLimit caps worker cache bytes; exceeding it fails the
// offending transfer or task (worker; 0 = unlimited).
func WithDiskLimit(bytes int64) Option {
	return func(c *config) { c.wrk.DiskLimit = bytes }
}

// WithTransferTimeout bounds one whole transfer-plane exchange (serve or
// fetch of a single cached object), replacing the former hardcoded five
// minutes (both; default 5m).
func WithTransferTimeout(d time.Duration) Option {
	return func(c *config) {
		if d > 0 {
			c.transferTimeout = d
		}
	}
}

// WithFaultInjector threads a fault-injection layer (internal/chaos.Plan)
// under every live connection and listener the component opens (both;
// default none).
func WithFaultInjector(inj NetFaultInjector) Option {
	return func(c *config) { c.inject = inj }
}

// WithHeartbeat sets the liveness policy: the manager pings each idle
// link every interval and declares a worker lost after timeout of
// silence; the worker symmetrically detects a lost manager and drains.
// interval <= 0 disables heartbeats entirely (both; default 2s/8s).
func WithHeartbeat(interval, timeout time.Duration) Option {
	return func(c *config) {
		c.hbInterval = interval
		if timeout < interval {
			timeout = 4 * interval
		}
		c.hbTimeout = timeout
	}
}

// WithControlOverhead charges d of serialized manager time per task-path
// control frame (dispatch, completion, lease, report), modelling the
// fixed per-message cost of a production manager's single-threaded event
// loop — protocol handling, accounting, logging — that a fast loopback
// harness otherwise hides. Like Library.SetupDelay for task setup, it
// lets benches recreate the dispatch-saturation regime the paper's
// foreman tier addresses: frames charge inside the manager lock, so a
// flat manager pays per task while a federation root pays only per
// batched lease or report frame (manager; default 0 = off).
func WithControlOverhead(d time.Duration) Option {
	return func(c *config) { c.controlOverhead = d }
}

// WithTaskDeadline bounds one execution attempt of every task that does
// not set its own Task.Deadline. An attempt running past the deadline is
// fast-aborted and speculatively re-dispatched to a different worker;
// the first result wins (manager; default 0 = no deadline).
func WithTaskDeadline(d time.Duration) Option {
	return func(c *config) { c.taskDeadline = d }
}

// WithRecoveryTimeout bounds how long FetchBytes waits for a lineage
// rollback to regenerate a file whose every replica was lost before it
// gives up (manager; default 30s).
func WithRecoveryTimeout(d time.Duration) Option {
	return func(c *config) {
		if d > 0 {
			c.recoveryTimeout = d
		}
	}
}

// WithRetryBackoff shapes the exponential-backoff-with-jitter schedule
// between task retry attempts: delay grows from base, doubling per
// attempt, clamped to max (manager; defaults 20ms/2s; base <= 0
// requeues immediately as before).
func WithRetryBackoff(base, max time.Duration) Option {
	return func(c *config) {
		c.backoffBase = base
		if max < base {
			max = base
		}
		c.backoffMax = max
	}
}

// WithRetrySeed seeds the jitter stream used by the retry backoff so a
// scheduling trace replays deterministically (manager; default 1).
func WithRetrySeed(seed uint64) Option {
	return func(c *config) { c.retrySeed = seed }
}

// WithScheduler selects the placement policy (manager; default
// sched.Locality(), the data-gravity placement the engine has always
// used). Stock alternatives: sched.BinPack(), sched.Spread(),
// sched.Random(seed), or any custom Filter→Score pipeline.
func WithScheduler(p *sched.Policy) Option {
	return func(c *config) { c.schedPolicy = p }
}

// WithQueue declares a named submission queue (tenant) with a weighted
// fair share of the cluster (manager; repeatable). Tasks name their
// queue via Task.Queue; an undeclared queue is created on first use with
// weight 1, and the "default" queue always exists.
func WithQueue(name string, weight float64) Option {
	return func(c *config) {
		c.queues = append(c.queues, sched.QueueConfig{Name: name, Weight: weight})
	}
}

// WithJournal attaches a durable run journal: the manager appends every
// task definition, dispatch, completion, and file declaration, and replays
// the journal's state at construction — completed tasks whose outputs
// survive on reconnecting workers are never re-executed (manager; default
// none). The caller owns the journal's lifecycle; Stop syncs it but does
// not close it, so a restarted manager can reuse the same handle.
func WithJournal(j *journal.Journal) Option {
	return func(c *config) { c.jr = j }
}

// WithJournalCompactEvery sets how many journaled task completions pass
// between automatic snapshot compactions (manager; default 512; <= 0
// disables automatic compaction — CompactJournal remains available).
func WithJournalCompactEvery(n int) Option {
	return func(c *config) { c.journalCompactEvery = n }
}

// WithListenAddr pins the manager's control listen address instead of an
// ephemeral loopback port, so a restarted manager comes back where its
// workers reconnect (manager; default "127.0.0.1:0").
func WithListenAddr(addr string) Option {
	return func(c *config) { c.listenAddr = addr }
}

// WithPersistentCache keeps the worker's on-disk cache across restarts:
// entries are indexed with their CRC-32C, scrubbed on startup (corrupt or
// unindexed files are dropped), and the surviving inventory is reported in
// the register handshake so the manager re-learns replicas instead of
// re-staging. Stop no longer removes the cache directory (worker; default
// off; pair with WithCacheDir for a stable location).
func WithPersistentCache(on bool) Option {
	return func(c *config) { c.wrk.Persist = on }
}

// WithOrphanTTL bounds how long a persistent-cache entry that no manager
// reclaims (acknowledges in the inventory handshake or touches afterwards)
// survives before the worker GCs it (worker; default 10m; <= 0 disables
// the GC).
func WithOrphanTTL(d time.Duration) Option {
	return func(c *config) { c.wrk.OrphanTTL = d }
}

// WithReconnect lets the worker survive a manager restart: on a connection
// error or manager silence it re-dials the manager address up to attempts
// times, backoff apart, and re-registers with its current cache inventory
// instead of draining (worker; default 0 = drain as before). A foreman's
// uplink redials the root the same way, re-offering its shard inventory
// (foreman; default 0 = the shard dies with its root connection).
func WithReconnect(attempts int, backoff time.Duration) Option {
	return func(c *config) {
		c.wrk.ReconnectAttempts = attempts
		if backoff > 0 {
			c.wrk.ReconnectBackoff = backoff
		}
	}
}

// WithLease attaches a leadership lease: the manager watches it and fences
// itself — permanently refusing to dispatch — the moment the lease is
// observed held by another manager. This is the split-brain guard for
// hot-standby HA: a paused-then-resumed old primary discovers the usurper's
// epoch and goes quiet instead of double-dispatching (manager; default
// none). internal/ha.AcquireLease produces a suitable Lease.
func WithLease(l Lease) Option {
	return func(c *config) { c.lease = l }
}

// WithReplayState hands the manager a journal fold built ahead of time —
// a hot standby streams the primary's journal through a journal.Follower
// into a ReplayState while the primary is alive, so takeover materializes
// state instead of re-reading the log (manager; default none = fold the
// attached journal from disk).
func WithReplayState(st *ReplayState) Option {
	return func(c *config) { c.replayState = st }
}

// WithTakeoverFrom marks this manager as a failover incarnation: expiry is
// when the dead primary's lease ran out, epoch the fencing token the
// standby acquired. The manager announces the takeover to registering
// workers and reports the expiry→first-dispatch gap as
// vine_takeover_latency_seconds (manager; default none).
func WithTakeoverFrom(expiry time.Time, epoch uint64) Option {
	return func(c *config) {
		c.takeoverFrom = expiry
		c.takeoverEpoch = epoch
	}
}

// WithPreemptible marks the worker as running on an opportunistic slot
// that may be preempted on short notice. The attribute rides the
// registration hello into the scheduler: placement prefers stable workers
// for replicas of hot files, so a preemption costs re-execution as rarely
// as possible (worker; default false).
func WithPreemptible(on bool) Option {
	return func(c *config) { c.wrk.Preemptible = on }
}

// WithManagers gives the worker fallback manager addresses beyond the one
// passed to NewWorker: on a connection error or manager silence the redial
// budget cycles through the whole list (primary first), so a worker
// survives a failover to a hot standby at a different address without
// operator action (worker; default none; repeatable). For a foreman they
// are fallback root addresses (foreman).
func WithManagers(addrs ...string) Option {
	return func(c *config) { c.wrk.Managers = append(c.wrk.Managers, addrs...) }
}
