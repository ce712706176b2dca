package vine

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"hepvine/internal/obs"
)

// Worker persistent cache and reconnection.
//
// With WithPersistentCache on, the cache directory outlives the worker
// process. A JSONL sidecar (index.jsonl) records {name, size, crc32c} per
// entry, appended on add and tombstoned on remove. A restarting worker
// scrubs the directory against the index — re-reading every indexed file
// and verifying size and CRC-32C — drops anything corrupt, missing, or
// unindexed, and reports the survivors to the manager as its cache
// inventory in the registration hello. Until a manager acknowledges an
// entry (or a task/transfer touches it), scrubbed entries are *orphans*
// with a TTL: caches left behind by finished runs age out instead of
// leaking disk forever.
//
// Reconnection is the other half of surviving a manager bounce: on a
// connection error or heartbeat silence, the worker re-dials the manager
// address and re-sends hello with its current in-memory inventory, so the
// (possibly journal-resumed) manager re-learns the replicas instead of
// re-staging them.

// indexFileName is the sidecar's name inside the cache dir; never a valid
// cachePathSafe output, so it can't collide with an entry.
const indexFileName = "index.jsonl"

// indexLine is one sidecar record: an upsert, or a tombstone when Del.
type indexLine struct {
	Name string `json:"n"`
	Size int64  `json:"s,omitempty"`
	CRC  uint32 `json:"c,omitempty"`
	Del  bool   `json:"d,omitempty"`
}

func (w *Worker) indexPath() string { return filepath.Join(w.dir, indexFileName) }

// openIndex opens the sidecar for appending (created by scrubCache's
// rewrite, which always runs first).
func (w *Worker) openIndex() error {
	f, err := os.OpenFile(w.indexPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w.idxMu.Lock()
	w.idxF = f
	w.idxMu.Unlock()
	return nil
}

func (w *Worker) closeIndex() {
	w.idxMu.Lock()
	defer w.idxMu.Unlock()
	if w.idxF != nil {
		w.idxF.Close()
		w.idxF = nil
	}
}

// appendIndexLine writes one JSONL record. Index write failures are
// deliberately non-fatal: the run proceeds, the entry just won't survive a
// restart (the scrub drops unindexed files).
func (w *Worker) appendIndexLine(l indexLine) {
	w.idxMu.Lock()
	defer w.idxMu.Unlock()
	if w.idxF == nil {
		return
	}
	data, err := json.Marshal(l)
	if err != nil {
		return
	}
	w.idxF.Write(append(data, '\n'))
}

// indexAdd records a cache entry in the persistent index.
func (w *Worker) indexAdd(name CacheName, size int64, crc uint32) {
	if !w.persist {
		return
	}
	w.appendIndexLine(indexLine{Name: string(name), Size: size, CRC: crc})
}

// indexRemove tombstones a cache entry in the persistent index.
func (w *Worker) indexRemove(name CacheName) {
	if !w.persist {
		return
	}
	w.appendIndexLine(indexLine{Name: string(name), Del: true})
}

// loadIndex folds the sidecar into its final state: last record per name
// wins, tombstones delete. A torn final line (crash mid-append) is skipped.
func loadIndex(path string) (map[CacheName]indexLine, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return map[CacheName]indexLine{}, nil
		}
		return nil, err
	}
	defer f.Close()
	out := make(map[CacheName]indexLine)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		var l indexLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			continue // torn or corrupt line: entry simply won't verify
		}
		if l.Del {
			delete(out, CacheName(l.Name))
		} else {
			out[CacheName(l.Name)] = l
		}
	}
	if err := sc.Err(); err != nil && err != bufio.ErrTooLong {
		return nil, err
	}
	return out, nil
}

// fileCRC streams a file, returning its size and CRC-32C.
func fileCRC(path string) (int64, uint32, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	h := crc32.New(castagnoli)
	n, err := io.Copy(h, f)
	if err != nil {
		return n, 0, err
	}
	return n, h.Sum32(), nil
}

// scrubCache verifies every indexed entry against its on-disk bytes,
// drops corrupt/missing/unindexed files, rewrites a compact index, and
// returns the surviving inventory (sorted for determinism). Runs before
// the worker dials, on fresh construction state, so only w.met needs to
// be live. All survivors start as orphans; the manager's inventory ack or
// first use rescues them.
func (w *Worker) scrubCache() ([]inventoryEntry, error) {
	idx, err := loadIndex(w.indexPath())
	if err != nil {
		return nil, err
	}
	keep := map[string]bool{indexFileName: true}
	var inv []inventoryEntry
	deadline := time.Now().Add(w.orphanTTL)
	for name, l := range idx {
		path := w.cachePath(name)
		size, crc, err := fileCRC(path)
		if err != nil || size != l.Size || crc != l.CRC {
			os.Remove(path)
			w.met.scrubDrops.Inc()
			w.rec.Emit(obs.Event{Type: obs.EvFileCorrupt, Worker: w.Name,
				Detail: fmt.Sprintf("scrub dropped %s (size %d vs %d indexed)", name, size, l.Size)})
			continue
		}
		w.cache[name] = size
		w.cacheUsed += size
		if w.orphanTTL > 0 {
			w.orphans[name] = deadline
		}
		keep[cachePathSafe(name)] = true
		inv = append(inv, inventoryEntry{CacheName: string(name), Size: size})
	}
	// Sweep strays: unindexed leftovers and .part temps from a crashed
	// transfer are unverifiable, so they go.
	ents, err := os.ReadDir(w.dir)
	if err != nil {
		return nil, err
	}
	for _, de := range ents {
		if !keep[de.Name()] {
			os.RemoveAll(filepath.Join(w.dir, de.Name()))
		}
	}
	// Rewrite the index compactly (dropping tombstones and dead entries),
	// atomically so a crash here leaves the old index, not half of one.
	tmp := w.indexPath() + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriter(f)
	for name, size := range w.cache {
		crc := idx[name].CRC
		data, _ := json.Marshal(indexLine{Name: string(name), Size: size, CRC: crc})
		bw.Write(append(data, '\n'))
	}
	werr := bw.Flush()
	if err := f.Close(); werr == nil {
		werr = err
	}
	if werr != nil {
		os.Remove(tmp)
		return nil, werr
	}
	if err := os.Rename(tmp, w.indexPath()); err != nil {
		os.Remove(tmp)
		return nil, err
	}
	w.met.cacheBytes.Set(w.cacheUsed)
	w.met.cacheHighWater.SetMax(w.cacheUsed)
	sort.Slice(inv, func(i, j int) bool { return inv[i].CacheName < inv[j].CacheName })
	return inv, nil
}

// inventoryLocked snapshots the current cache as hello inventory entries
// (requires w.mu).
func (w *Worker) inventoryLocked() []inventoryEntry {
	inv := make([]inventoryEntry, 0, len(w.cache))
	for name, size := range w.cache {
		inv = append(inv, inventoryEntry{CacheName: string(name), Size: size})
	}
	sort.Slice(inv, func(i, j int) bool { return inv[i].CacheName < inv[j].CacheName })
	return inv
}

// onInventoryAck rescues manager-recognized entries from the orphan set:
// they're replicas in a live run now, reclaimed by the normal unlink/evict
// lifecycle instead of the TTL.
func (w *Worker) onInventoryAck(ack *inventoryAckMsg) {
	w.mu.Lock()
	for _, name := range ack.Known {
		delete(w.orphans, CacheName(name))
	}
	w.mu.Unlock()
}

// Orphans reports how many scrubbed cache entries are still unclaimed by
// any manager (tests and diagnostics).
func (w *Worker) Orphans() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.orphans)
}

// orphanGC ages out cache entries no manager ever claimed. Pinned entries
// get their deadline pushed instead of being dropped mid-use.
func (w *Worker) orphanGC() {
	tick := w.orphanTTL / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	if tick > 30*time.Second {
		tick = 30 * time.Second
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-w.doneC:
			return
		case <-t.C:
		}
		now := time.Now()
		var victims []evictedFile
		w.mu.Lock()
		for name, dl := range w.orphans {
			if !now.After(dl) {
				continue
			}
			if w.pins[name] > 0 {
				w.orphans[name] = now.Add(w.orphanTTL)
				continue
			}
			if size, ok := w.cache[name]; ok {
				delete(w.cache, name)
				delete(w.lastUse, name)
				w.cacheUsed -= size
				victims = append(victims, evictedFile{name: name, size: size})
			}
			delete(w.orphans, name)
		}
		if len(victims) > 0 {
			w.met.cacheBytes.Set(w.cacheUsed)
		}
		w.mu.Unlock()
		for range victims {
			w.met.orphanGCs.Inc()
		}
		w.finishEvictions(victims)
	}
}

// reconnect re-establishes the control channel after old died and
// re-registers with the current cache inventory. Reports whether the
// worker is registered on a fresh connection.
func (w *Worker) reconnect(old *conn) bool {
	return w.link.reconnect(&w.mu, &w.stopped, w.doneC, old, func(nc *conn) {
		w.lastMgr = time.Now()
		inv := w.inventoryLocked()
		w.met.reconnects.Inc()
		w.rec.Emit(obs.Event{Type: obs.EvWorkerJoin, Worker: w.Name,
			Detail: fmt.Sprintf("reconnected with %d cached files", len(inv))})
		nc.send(w.hello(inv))
	})
}

// Reconnects reports how many times this worker re-registered with the
// manager (tests and diagnostics).
func (w *Worker) Reconnects() int { return int(w.met.reconnects.Value()) }
