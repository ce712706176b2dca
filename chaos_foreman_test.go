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
	"sync"
	"testing"
	"time"

	"hepvine/internal/apps"
	"hepvine/internal/coffea"
	"hepvine/internal/dag"
	"hepvine/internal/daskvine"
	"hepvine/internal/foreman"
	"hepvine/internal/rootio"
	"hepvine/internal/vine"
)

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
	fed, err := foreman.NewLocalFederation(foreman.LocalConfig{
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
