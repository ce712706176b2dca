package vine

// Federation: the root manager speaks the ordinary vine protocol downward
// to subordinate managers ("foremen"). A foreman registers over the same
// control channel as a worker (hello with Foreman=true) and is scheduled
// like one — the root's policy picks a shard, reserving shard capacity
// exactly as it reserves worker cores — but instead of dispatch+staging
// the root sends batched task *leases* and receives aggregated *reports*.
//
// Data never funnels through the root: when a lease's input lives in
// another shard (or on a flat worker), the root brokers a peer-transfer
// ticket — the source address plus size — and the destination shard pulls
// the bytes worker-to-worker over the existing CRC-checked transfer path.
// The receiving side of a ticket is an *external replica* in the foreman's
// local manager: an address outside its own cluster that serves the file.
//
// The recovery ladder climbs across the shard boundary in both directions:
// a shard that pulls bytes failing their checksum quarantines the external
// address locally, and when its sources are exhausted the lease fails fast
// with a Lost report; the root purges (and on corruption quarantines) the
// ticketed replica and re-runs the producer through the ordinary lineage
// rollback. A dead foreman is just a lost worker to the root: its leases
// requeue, its shard replicas vanish from the table, and the journal's
// lease records replay as re-runnable definitions after a root restart.
//
// This file holds the root side and the local manager's shard-side
// helpers; the foreman itself (lease intake, reports, uplink) is
// foreman.go. Both sides speak the wire structs in protocol.go directly.

import (
	"slices"
	"sort"
	"time"

	"hepvine/internal/journal"
	"hepvine/internal/obs"
)

// ---- root side ----

// foremenActiveLocked counts live registered foremen (requires m.mu).
func (m *Manager) foremenActiveLocked() int {
	n := 0
	for _, w := range m.workers {
		if w.foreman && w.alive {
			n++
		}
	}
	return n
}

// replicaAddrLocked reports the transfer address serving name from w: a
// flat worker serves everything it caches from its own transfer server; a
// foreman serves each file from whichever shard-local address it reported.
// Empty means the replica is not addressable (and must not be ticketed).
func (m *Manager) replicaAddrLocked(w *workerState, name CacheName) string {
	if w.foreman {
		return w.shardAddr[name]
	}
	return w.transferAddr
}

// ticketAddrLocked picks the source address for a peer-transfer ticket:
// the lowest-id live replica outside the destination shard, falling back
// to the root's own store. Empty means no live source exists anywhere.
func (m *Manager) ticketAddrLocked(name CacheName, dest int) (string, int64) {
	fs := m.files[name]
	if fs == nil {
		return "", 0
	}
	ids := make([]int, 0, len(fs.workers))
	for wid := range fs.workers {
		ids = append(ids, wid)
	}
	sort.Ints(ids)
	for _, wid := range ids {
		if wid == dest {
			continue
		}
		if w := m.workers[wid]; w != nil && w.alive {
			if a := m.replicaAddrLocked(w, name); a != "" {
				return a, fs.size
			}
		}
	}
	if fs.onManager {
		return m.ts.Addr(), fs.size
	}
	return "", 0
}

// leaseLocked assigns rec to the foreman w: it builds peer-transfer
// tickets for every input the shard lacks, journals the lease (so a
// resumed root re-runs it if the foreman dies with it in flight), and
// buffers the lease for the batched flush at the end of the scheduling
// pass. If any input has no live source anywhere the assignment unwinds
// into the lineage ladder instead, exactly like a flat staging failure.
func (m *Manager) leaseLocked(rec *taskRecord, w *workerState) {
	if m.fenced {
		// Lease lost between ready and assignment: stay parked; the standby
		// that owns the leadership lease runs it from a resubmission.
		return
	}
	rootAddr := m.ts.Addr()
	var tickets []ticketWire
	for _, in := range rec.spec.Inputs {
		if w.cache[in.CacheName] {
			continue // the shard already holds it
		}
		addr, size := m.ticketAddrLocked(in.CacheName, w.id)
		if addr == "" {
			m.releaseWorkerLocked(rec)
			m.setTaskState(rec, TaskWaiting)
			m.reviveProducersLocked(rec)
			return
		}
		tickets = append(tickets, ticketWire{CacheName: string(in.CacheName), Addr: addr, Size: size})
	}
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
	m.journalLocked(&journal.Record{Kind: journal.KindLease, TaskID: rec.id, Worker: w.name})
	for _, tk := range tickets {
		if tk.Addr == rootAddr {
			// Root-store staging: the one flow that still touches the
			// root's NIC (dataset files declared at the root).
			m.met.managerTransfers.Inc()
			m.met.managerBytes.Add(tk.Size)
			m.rec.Emit(obs.Event{Type: obs.EvTransferStart, Src: "manager",
				Dst: w.name, Bytes: tk.Size, Detail: tk.CacheName})
		} else {
			m.met.crossShard.Inc()
			m.met.crossShardBytes.Add(tk.Size)
			m.met.peerTransfers.Inc()
			m.met.peerBytes.Add(tk.Size)
			// Both events fire: transfer_start keeps the trace↔metrics
			// byte ledger exact on every deployment shape; the cross-shard
			// event carries the federation-specific detail.
			m.rec.Emit(obs.Event{Type: obs.EvTransferStart, Src: tk.Addr,
				Dst: w.name, Bytes: tk.Size, Detail: tk.CacheName})
			m.rec.Emit(obs.Event{Type: obs.EvCrossShardTransfer, Task: rec.label(),
				Worker: w.name, Src: tk.Addr, Bytes: tk.Size, Detail: tk.CacheName})
		}
	}
	e := leaseEntryWire{
		TaskID:  rec.id,
		Mode:    string(rec.spec.Mode),
		Library: rec.spec.Library,
		Func:    rec.spec.Func,
		Args:    rec.spec.Args,
		Cores:   rec.spec.Cores,
		Memory:  rec.spec.Memory,
		Tickets: tickets,
	}
	for _, in := range rec.spec.Inputs {
		e.Inputs = append(e.Inputs, fileRefWire{Name: in.Name, CacheName: string(in.CacheName)})
	}
	for _, out := range rec.spec.Outputs {
		e.Outputs = append(e.Outputs, fileRefWire{Name: out, CacheName: string(rec.handle.outputs[out])})
	}
	w.leaseBuf = append(w.leaseBuf, e)
}

// microbatchDelay is the federation's one coalescing window, used in both
// directions: a partial lease buffer at the root, and a foreman's
// finished leases, wait this long for company before they are shipped.
// A burst still coalesces into full frames — a tight Submit loop is one
// scheduling pass per call — while a lone task crosses a tier in ~1 ms.
const microbatchDelay = time.Millisecond

// flushLeasesLocked ships every full lease frame immediately and arms a
// one-shot microbatch timer for whatever remains, so a burst of ready
// tasks costs the root frames proportional to shard count and batch
// size, not task count.
func (m *Manager) flushLeasesLocked() {
	pending := false
	for _, w := range m.workers {
		if !w.foreman || !w.alive || len(w.leaseBuf) == 0 {
			continue
		}
		for len(w.leaseBuf) >= defaultLeaseBatch {
			batch := w.leaseBuf[:defaultLeaseBatch:defaultLeaseBatch]
			w.leaseBuf = w.leaseBuf[defaultLeaseBatch:]
			m.sendLeaseBatchLocked(w, batch)
		}
		if len(w.leaseBuf) > 0 {
			pending = true
		}
	}
	if pending && !m.leaseFlushArmed {
		m.leaseFlushArmed = true
		time.AfterFunc(microbatchDelay, m.flushLeaseRemainder)
	}
}

// flushLeaseRemainder is the microbatch timer body: ship every partial
// lease buffer that is still waiting.
func (m *Manager) flushLeaseRemainder() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.leaseFlushArmed = false
	if m.stopped {
		return
	}
	for _, w := range m.workers {
		if !w.foreman || !w.alive || len(w.leaseBuf) == 0 {
			continue
		}
		buf := w.leaseBuf
		w.leaseBuf = nil
		for start := 0; start < len(buf); start += defaultLeaseBatch {
			end := start + defaultLeaseBatch
			if end > len(buf) {
				end = len(buf)
			}
			m.sendLeaseBatchLocked(w, buf[start:end])
		}
	}
}

func (m *Manager) sendLeaseBatchLocked(w *workerState, batch []leaseEntryWire) {
	m.controlFrameLocked()
	w.conn.send(&message{Type: msgLease, Lease: &leaseBatchMsg{Leases: batch}})
	m.met.leaseBatches.Inc()
	m.met.leaseGrants.Add(int64(len(batch)))
	m.rec.Emit(obs.Event{Type: obs.EvLeaseGrant, Worker: w.name, Attempt: len(batch)})
}

// onForemanReport folds one aggregated shard report: lost/corrupt source
// replicas are purged first (so a failed lease's retry never re-tickets
// them), each finished lease flows through the ordinary completion path,
// and the shard's replica addresses — outputs it produced, ticketed
// inputs it pulled and now caches — feed the cross-shard replica table.
func (m *Manager) onForemanReport(wid int, rep *foremanReportMsg) {
	m.mu.Lock()
	defer m.mu.Unlock()
	w := m.workers[wid]
	if w == nil || !w.foreman {
		return
	}
	m.controlFrameLocked()
	m.met.foremanReports.Inc()
	w.backlog = rep.Backlog
	for i := range rep.Done {
		d := &rep.Done[i]
		for _, lr := range d.Lost {
			m.purgeShardReplicaLocked(CacheName(lr.CacheName), lr.Addr, lr.Corrupt)
		}
		sizes := d.OutputSizes
		if d.OK {
			// Only outputs with a surviving shard address become replicas;
			// an addressless entry would satisfy hasSource while being
			// unticketable.
			sizes = make(map[string]int64, len(d.OutputSizes))
			for cn, size := range d.OutputSizes {
				if d.OutputAddrs[cn] != "" {
					sizes[cn] = size
				}
			}
		}
		m.onTaskDoneLocked(wid, &taskDoneMsg{
			TaskID: d.TaskID, OK: d.OK, Error: d.Error, OutputSizes: sizes,
			ExecNanos: d.ExecNanos, SetupNanos: d.SetupNanos,
		})
		if !w.alive {
			return // the completion handler may have torn the foreman down
		}
		for cn, addr := range d.OutputAddrs {
			m.recordShardReplicaLocked(w, CacheName(cn), d.OutputSizes[cn], addr)
		}
		for cn, addr := range d.InputAddrs {
			m.recordShardReplicaLocked(w, CacheName(cn), d.InputSizes[cn], addr)
		}
	}
	m.promoteWaitersLocked()
	m.scheduleLocked()
}

// recordShardReplicaLocked registers addr as the shard-local source for
// name under foreman w, updating the replica table, the scheduler's
// locality index, and the ticket address map (requires m.mu). Idempotent.
func (m *Manager) recordShardReplicaLocked(w *workerState, name CacheName, size int64, addr string) {
	if addr == "" || !w.alive || !w.foreman {
		return
	}
	fs := m.files[name]
	if fs == nil {
		return
	}
	if size > 0 && fs.size == 0 {
		fs.size = size
	}
	if !fs.workers[w.id] {
		fs.workers[w.id] = true
		w.cache[name] = true
		w.cacheBytes += fs.size
		m.sched.FileCached(w.id, string(name), fs.size)
	}
	w.shardAddr[name] = addr
}

// purgeShardReplicaLocked drops the replica of name served at addr after
// a shard reported it lost (source died) or corrupt (bytes failed their
// checksum). Corruption additionally quarantines: the holder is told to
// unlink so the bad bytes cannot resurface as a future ticket. The root's
// own store is left alone — it re-reads from disk or memory on the next
// fetch, so an in-flight corruption there clears itself on retry.
func (m *Manager) purgeShardReplicaLocked(name CacheName, addr string, corrupt bool) {
	if addr == "" || addr == m.ts.Addr() {
		return
	}
	fs := m.files[name]
	if fs == nil {
		return
	}
	for wid := range fs.workers {
		hw := m.workers[wid]
		if hw == nil || m.replicaAddrLocked(hw, name) != addr {
			continue
		}
		delete(fs.workers, wid)
		if hw.cache[name] {
			delete(hw.cache, name)
			hw.cacheBytes -= fs.size
			if hw.cacheBytes < 0 {
				hw.cacheBytes = 0
			}
		}
		if hw.foreman {
			delete(hw.shardAddr, name)
		}
		m.sched.FileEvicted(wid, string(name))
		if corrupt {
			m.met.corruptTransfers.Inc()
			m.rec.Emit(obs.Event{Type: obs.EvFileCorrupt, Src: hw.name,
				Detail: string(name) + ": cross-shard transfer failed checksum"})
			if hw.alive {
				hw.conn.send(&message{Type: msgUnlink, Unlink: &unlinkMsg{CacheName: string(name)}})
			}
		}
	}
}

// ShardInfo is an operational snapshot of one registered foreman.
type ShardInfo struct {
	Name        string
	Alive       bool
	Cores       int
	UsedCores   int
	Backlog     int // shard-reported leased-but-not-terminal count
	CachedFiles int // files the root can ticket out of this shard
	TasksDone   int // completions accepted from this shard
}

// FederationStats snapshots the root's view of its shard tree.
type FederationStats struct {
	Foremen         int // live foremen
	LeaseGrants     int
	LeaseBatches    int
	CrossShard      int // peer-transfer tickets brokered across shards
	CrossShardBytes int64
	Shards          []ShardInfo // every foreman ever registered, by name
}

// FederationStats reports lease/ticket counters and per-shard state.
func (m *Manager) FederationStats() FederationStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := FederationStats{
		LeaseGrants:     int(m.met.leaseGrants.Value()),
		LeaseBatches:    int(m.met.leaseBatches.Value()),
		CrossShard:      int(m.met.crossShard.Value()),
		CrossShardBytes: m.met.crossShardBytes.Value(),
	}
	for _, w := range m.workers {
		if !w.foreman {
			continue
		}
		if w.alive {
			st.Foremen++
		}
		st.Shards = append(st.Shards, ShardInfo{
			Name:        w.name,
			Alive:       w.alive,
			Cores:       w.cores,
			UsedCores:   w.usedCores,
			Backlog:     w.backlog,
			CachedFiles: len(w.cache),
			TasksDone:   w.doneCount,
		})
	}
	sort.Slice(st.Shards, func(i, j int) bool { return st.Shards[i].Name < st.Shards[j].Name })
	return st
}

// ---- shard side (a foreman's local manager; see foreman.go) ----

// addExternalReplica registers addr — an address outside this manager's
// own cluster, i.e. the payload of a peer-transfer ticket — as a source
// for name. The file becomes stageable exactly like a declared one: the
// transfer pump pulls it straight from the external address, rotating
// across registered addresses on retries and quarantining any that serve
// bytes failing their checksum.
func (m *Manager) addExternalReplica(name CacheName, size int64, addr string) {
	if addr == "" {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	fs := m.files[name]
	if fs == nil {
		fs = &fileState{workers: make(map[int]bool), producer: -1}
		m.files[name] = fs
	}
	if size > 0 && fs.size == 0 {
		fs.size = size
	}
	fs.wasExt = true
	// Quarantined addresses stay dead.
	if !slices.Contains(fs.ext, addr) && !slices.Contains(fs.extBad, addr) {
		fs.ext = append(fs.ext, addr)
	}
	m.promoteWaitersLocked()
	m.scheduleLocked()
	m.notifyLocked()
}

// replicaInfoLocked reports an address inside this manager's own cluster
// currently serving name (lowest-id live worker replica, else the
// manager's own store) and the file's size. ok is false when the cluster
// cannot serve the file itself — external sources don't count.
func (m *Manager) replicaInfoLocked(name CacheName) (addr string, size int64, ok bool) {
	fs := m.files[name]
	if fs == nil {
		return "", 0, false
	}
	ids := make([]int, 0, len(fs.workers))
	for wid := range fs.workers {
		ids = append(ids, wid)
	}
	sort.Ints(ids)
	for _, wid := range ids {
		if w := m.workers[wid]; w != nil && w.alive && !w.foreman && w.transferAddr != "" {
			return w.transferAddr, fs.size, true
		}
	}
	if fs.onManager {
		return m.ts.Addr(), fs.size, true
	}
	return "", fs.size, false
}

// replicaInventory snapshots every file this cluster can serve itself,
// with a serving address — the inventory a (re)registering foreman offers
// the root so its shard's replicas are re-learned, not re-staged.
func (m *Manager) replicaInventory() []inventoryEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []inventoryEntry
	for cn := range m.files {
		if addr, size, ok := m.replicaInfoLocked(cn); ok {
			out = append(out, inventoryEntry{CacheName: string(cn), Size: size, Addr: addr})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].CacheName < out[j].CacheName })
	return out
}

// extAddrLocked rotates across a file's external addresses by attempt
// count, so a staging retry tries a different source shard.
func (m *Manager) extAddrLocked(fs *fileState, attempts int) string {
	if len(fs.ext) == 0 {
		return ""
	}
	return fs.ext[attempts%len(fs.ext)]
}

// quarantineExternalLocked moves an external address that served corrupt
// bytes to the quarantine list so it is never retried or re-registered.
func (m *Manager) quarantineExternalLocked(name CacheName, addr string) {
	fs := m.files[name]
	if fs == nil {
		return
	}
	for i, a := range fs.ext {
		if a == addr {
			fs.ext = append(fs.ext[:i], fs.ext[i+1:]...)
			fs.extBad = append(fs.extBad, addr)
			return
		}
	}
}
