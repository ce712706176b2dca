// Chaos soak for the federation tier: the quickstart workload executed
// on a two-shard foreman tree, with one foreman killed the moment it has
// produced its first processor output. The root must replay the dead
// shard's leases onto the survivor, the dead shard's workers must re-home
// to the sibling, ticketed inputs whose source shard died must climb the
// lineage ladder across the boundary — and the final histogram must be
// bit-identical to a fault-free federated run, twice over.
package benchrun

import (
	"bytes"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hepvine/internal/apps"
	"hepvine/internal/coffea"
	"hepvine/internal/dag"
	"hepvine/internal/daskvine"
	"hepvine/internal/journal"
	"hepvine/internal/rootio"
	"hepvine/internal/sched"
	"hepvine/internal/vine"
)

// fedWorkload builds the chunked MET graph over a seeded 4-file dataset.
func fedWorkload(t *testing.T) (*dag.Graph, dag.Key) {
	t.Helper()
	dir := t.TempDir()
	paths, err := rootio.WriteDataset(dir, rootio.DatasetSpec{
		Name: "FedMu", Files: 4, EventsPerFile: 6000,
		Gen: rootio.GenOptions{Seed: 19},
	})
	if err != nil {
		t.Fatal(err)
	}
	files := make([]coffea.FileInfo, len(paths))
	for i, p := range paths {
		files[i] = coffea.FileInfo{Path: p, NEvents: 6000}
	}
	chunks, err := coffea.PartitionPerFile("FedMu", files, 4)
	if err != nil {
		t.Fatal(err)
	}
	graph, root, err := coffea.BuildGraph("met", chunks, coffea.GraphOptions{FanIn: 2})
	if err != nil {
		t.Fatal(err)
	}
	return graph, root
}

// runFederated executes the chunked MET workload on a 2-foreman,
// 2-workers-per-foreman tree. With kill set, foreman 0 is crashed —
// uplink first, then its whole local cluster — right after the first
// processor output lands anywhere, which is mid-run by construction
// (accumulations still need every processor output).
func runFederated(t *testing.T, seed uint64, kill bool) ([]byte, vine.FederationStats) {
	t.Helper()
	apps.RegisterProcessors()
	if err := vine.RegisterLibrary(daskvine.NewLibrary(20 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}

	graph, root := fedWorkload(t)

	shardOpts := func(int) []vine.Option {
		return []vine.Option{
			vine.WithPeerTransfers(true),
			vine.WithLibrary(daskvine.LibraryName, true),
			vine.WithMaxRetries(10),
			vine.WithRetryBackoff(5*time.Millisecond, 40*time.Millisecond),
			vine.WithRetrySeed(seed),
			vine.WithRecoveryTimeout(20 * time.Second),
		}
	}
	fed, err := vine.NewLocalFederation(vine.LocalConfig{
		Foremen:           2,
		WorkersPerForeman: 2,
		CoresPerWorker:    2,
		RootOptions: []vine.Option{
			vine.WithMaxRetries(10),
			vine.WithRetryBackoff(5*time.Millisecond, 40*time.Millisecond),
			vine.WithRetrySeed(seed),
			vine.WithRecoveryTimeout(20 * time.Second),
		},
		LocalOptions: shardOpts,
		WorkerOptions: func(int, int) []vine.Option {
			return []vine.Option{vine.WithCacheDir(t.TempDir())}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fed.Stop()
	if err := fed.Root.WaitForWorkers(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	opts := daskvine.Options{Mode: vine.ModeFunctionCall, Timeout: 120 * time.Second}
	if kill {
		var once sync.Once
		opts.OnTaskDone = func(key dag.Key, h *vine.TaskHandle) {
			once.Do(func() { fed.Foremen[0].Crash() })
		}
	}
	res, err := daskvine.Run(fed.Root, graph, root, opts)
	if err != nil {
		t.Fatalf("federated workload failed (kill=%v): %v", kill, err)
	}
	met := res.H["met"]
	if met == nil || met.Entries == 0 {
		t.Fatalf("empty MET histogram (kill=%v)", kill)
	}
	return met.Marshal(), fed.Root.FederationStats()
}

// TestChaosForemanKillRehome is the federation's headline robustness
// proof: kill a whole shard mid-run and the answer does not change.
func TestChaosForemanKillRehome(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	base, bst := runFederated(t, 7, false)
	if bst.Foremen != 2 || bst.LeaseGrants == 0 {
		t.Fatalf("fault-free federation stats: %+v", bst)
	}
	got, st := runFederated(t, 7, true)
	if !bytes.Equal(base, got) {
		t.Fatalf("post-crash run diverged from fault-free run: %d vs %d bytes", len(base), len(got))
	}
	if st.Foremen != 1 {
		t.Fatalf("live foremen after kill = %d: %+v", st.Foremen, st)
	}
	survivors := 0
	for _, sh := range st.Shards {
		if sh.Alive && sh.TasksDone > 0 {
			survivors++
		}
	}
	if survivors != 1 {
		t.Fatalf("no surviving shard absorbed the work: %+v", st.Shards)
	}
	again, _ := runFederated(t, 7, true)
	if !bytes.Equal(got, again) {
		t.Fatal("same-seed post-crash runs diverged")
	}
}

// TestChaosForemanRootRestart crashes a journaled root under live foremen
// and restarts it at the same address. Foremen built WithReconnect must
// redial their uplinks and re-register with their shard inventories; the
// identical resubmission must finish bit-identical to a fault-free run,
// with the tasks completed before the crash whose outputs survive on the
// shards coming back as warm hits instead of re-executing.
func TestChaosForemanRootRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	base, _ := runFederated(t, 7, false)
	graph, root := fedWorkload(t)

	runDir := t.TempDir()
	jr, err := journal.Open(filepath.Join(runDir, "journal"), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rootOpts := []vine.Option{
		vine.WithMaxRetries(10),
		vine.WithRetryBackoff(5*time.Millisecond, 40*time.Millisecond),
		vine.WithRetrySeed(7),
		vine.WithRecoveryTimeout(20 * time.Second),
	}
	fed, err := vine.NewLocalFederation(vine.LocalConfig{
		Foremen:           2,
		WorkersPerForeman: 2,
		CoresPerWorker:    2,
		RootOptions:       append([]vine.Option{vine.WithJournal(jr)}, rootOpts...),
		LocalOptions: func(int) []vine.Option {
			return []vine.Option{
				vine.WithReconnect(200, 25*time.Millisecond),
				vine.WithPeerTransfers(true),
				vine.WithLibrary(daskvine.LibraryName, true),
				vine.WithMaxRetries(10),
				vine.WithRetryBackoff(5*time.Millisecond, 40*time.Millisecond),
				vine.WithRetrySeed(7),
				vine.WithRecoveryTimeout(20 * time.Second),
			}
		},
		WorkerOptions: func(int, int) []vine.Option {
			return []vine.Option{vine.WithCacheDir(t.TempDir())}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fed.Stop()
	root1 := fed.Root
	addr := root1.Addr()
	if err := root1.WaitForWorkers(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	// Crash once a third of the graph has completed, so a known-nonzero
	// slice of work is durable and cached on the shards at the kill.
	crashAfter := graph.Len() / 3
	var dones atomic.Int64
	var once sync.Once
	_, err = daskvine.Run(root1, graph, root, daskvine.Options{
		Mode: vine.ModeFunctionCall, Timeout: 60 * time.Second,
		OnTaskDone: func(key dag.Key, h *vine.TaskHandle) {
			if int(dones.Add(1)) >= crashAfter {
				once.Do(func() {
					jr.Sync()
					root1.Crash()
				})
			}
		},
	})
	if err == nil {
		t.Fatal("run survived a root crash")
	}
	completedAtKill := root1.Stats().TasksDone
	if completedAtKill == 0 {
		t.Fatal("root crashed before any task completed; crash trigger broken")
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}

	jr2, err := journal.Open(filepath.Join(runDir, "journal"), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer jr2.Close()
	// The crashed incarnation's listener may take a beat to release the
	// port; retry the bind until it does.
	var root2 *vine.Manager
	for bindDeadline := time.Now().Add(5 * time.Second); ; {
		root2, err = vine.NewManager(append([]vine.Option{
			vine.WithName("root"),
			vine.WithScheduler(sched.Federate()),
			vine.WithJournal(jr2),
			vine.WithListenAddr(addr),
		}, rootOpts...)...)
		if err == nil {
			break
		}
		if time.Now().After(bindDeadline) {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	fed.Root = root2 // fed.Stop tears down the live incarnation
	if err := root2.WaitForWorkers(2, 15*time.Second); err != nil {
		t.Fatalf("foremen did not re-register with the restarted root: %v", err)
	}
	for _, sh := range root2.FederationStats().Shards {
		if sh.CachedFiles == 0 {
			t.Fatalf("shard %s re-registered without its inventory: %+v", sh.Name, sh)
		}
	}

	res, err := daskvine.Run(root2, graph, root, daskvine.Options{
		Mode: vine.ModeFunctionCall, Timeout: 60 * time.Second,
	})
	if err != nil {
		t.Fatalf("resumed federated run failed: %v", err)
	}
	if got := res.H["met"].Marshal(); !bytes.Equal(base, got) {
		t.Fatalf("resumed run diverged from fault-free run: %d vs %d bytes", len(base), len(got))
	}
	st := root2.Stats()
	if st.JournalReplayed == 0 {
		t.Fatal("restarted root replayed nothing")
	}
	if st.TasksDone >= graph.Len() {
		t.Fatalf("restart re-executed the whole graph: %d of %d tasks", st.TasksDone, graph.Len())
	}
	if st.WarmHits == 0 {
		t.Fatalf("no warm hits after restart (%d tasks completed at the kill)", completedAtKill)
	}
	t.Logf("%d tasks completed at the kill, %d warm hits, %d re-executed of %d",
		completedAtKill, st.WarmHits, st.TasksDone, graph.Len())
}
