package vine

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

func registerFedLib(t *testing.T) {
	t.Helper()
	MustRegisterLibrary(&Library{
		Name: "fedlib",
		Funcs: map[string]Function{
			"echo": func(c *Call) error {
				c.SetOutput("out", append([]byte("echo:"), c.Args...))
				return nil
			},
			"slowup": func(c *Call) error {
				in, err := c.Input("in")
				if err != nil {
					return err
				}
				time.Sleep(20 * time.Millisecond)
				c.SetOutput("out", append(bytes.ToUpper(in), c.Args...))
				return nil
			},
			"noop": func(*Call) error { return nil },
			"next": func(c *Call) error {
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

func newFed(t *testing.T, foremen, workersPer int) *LocalFederation {
	return newFedCfg(t, LocalConfig{Foremen: foremen, WorkersPerForeman: workersPer, CoresPerWorker: 2})
}

// newFedCfg starts a loopback tree sized by cfg, with the fedlib library
// and fast retries installed on every tier.
func newFedCfg(t *testing.T, cfg LocalConfig) *LocalFederation {
	t.Helper()
	registerFedLib(t)
	cfg.RootOptions = []Option{
		WithMaxRetries(10),
		WithRetryBackoff(5*time.Millisecond, 40*time.Millisecond),
	}
	cfg.LocalOptions = func(int) []Option {
		return []Option{
			WithPeerTransfers(true),
			WithLibrary("fedlib", true),
			WithMaxRetries(10),
			WithRetryBackoff(5*time.Millisecond, 40*time.Millisecond),
		}
	}
	cfg.WorkerOptions = func(int, int) []Option {
		return []Option{WithCacheDir(t.TempDir())}
	}
	fed, err := NewLocalFederation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fed.Stop)
	if err := fed.Root.WaitForWorkers(cfg.Foremen, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	for _, fm := range fed.Foremen {
		if err := fm.Local().WaitForWorkers(cfg.WorkersPerForeman, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	return fed
}

// TestFederationEcho drives one task down the full tree: root lease →
// foreman → local scheduler → worker → report → root completion, with
// the output fetched back through the shard's transfer address.
func TestFederationEcho(t *testing.T) {
	fed := newFed(t, 2, 1)
	h, err := fed.Root.SubmitFunc(ModeTask, "fedlib", "echo", []byte("hi"), "out")
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Wait(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	cn, _ := h.Output("out")
	data, err := fed.Root.FetchBytes(cn)
	if err != nil {
		t.Fatalf("fetching output across shard boundary: %v", err)
	}
	if string(data) != "echo:hi" {
		t.Fatalf("got %q", data)
	}
	st := fed.Root.FederationStats()
	if st.Foremen != 2 || st.LeaseGrants < 1 || st.LeaseBatches < 1 {
		t.Fatalf("federation stats: %+v", st)
	}
	if len(st.Shards) != 2 {
		t.Fatalf("shards: %+v", st.Shards)
	}
	done := 0
	for _, sh := range st.Shards {
		done += sh.TasksDone
	}
	if done != 1 {
		t.Fatalf("per-shard done counts: %+v", st.Shards)
	}
}

// TestFederationCrossShardTickets pins the data-plane property: a
// consumer leased to the shard that does not hold its input gets a
// peer-transfer ticket and pulls the bytes worker-to-worker, visible as
// cross-shard transfer accounting at the root.
func TestFederationCrossShardTickets(t *testing.T) {
	fed := newFed(t, 2, 1)
	seed, err := fed.Root.SubmitFunc(ModeTask, "fedlib", "echo", []byte("seed"), "out")
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Wait(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	seedCN, _ := seed.Output("out")

	// Six 1-core consumers of the seed against 2+2 shard cores: the first
	// scheduling pass must spill onto the shard that lacks the seed.
	var hs []*TaskHandle
	for i := 0; i < 6; i++ {
		h, err := fed.Root.Submit(Task{
			Mode: ModeTask, Library: "fedlib", Func: "slowup",
			Args:    []byte(fmt.Sprintf("-%d", i)),
			Inputs:  []FileRef{{Name: "in", CacheName: seedCN}},
			Outputs: []string{"out"},
			Cores:   1,
		})
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	for i, h := range hs {
		if err := h.Wait(15 * time.Second); err != nil {
			t.Fatalf("consumer %d: %v", i, err)
		}
		cn, _ := h.Output("out")
		data, err := fed.Root.FetchBytes(cn)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("ECHO:SEED-%d", i); string(data) != want {
			t.Fatalf("consumer %d: got %q want %q", i, data, want)
		}
	}
	st := fed.Root.FederationStats()
	if st.CrossShard < 1 {
		t.Fatalf("no cross-shard tickets brokered: %+v", st)
	}
	if st.CrossShardBytes < 1 {
		t.Fatalf("cross-shard bytes not accounted: %+v", st)
	}
	for _, sh := range st.Shards {
		if sh.TasksDone == 0 {
			t.Fatalf("shard %s ran nothing — no spillover: %+v", sh.Name, st.Shards)
		}
	}
}

// TestFederationForemanCrashRehome kills one of two foremen mid-batch:
// its in-flight leases must replay onto the surviving shard, its workers
// must re-home there, and every task must still finish correctly.
func TestFederationForemanCrashRehome(t *testing.T) {
	fed := newFed(t, 2, 1)
	seed, err := fed.Root.SubmitFunc(ModeTask, "fedlib", "echo", []byte("x"), "out")
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Wait(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	seedCN, _ := seed.Output("out")

	var hs []*TaskHandle
	for i := 0; i < 10; i++ {
		h, err := fed.Root.Submit(Task{
			Mode: ModeTask, Library: "fedlib", Func: "slowup",
			Args:    []byte(fmt.Sprintf("!%d", i)),
			Inputs:  []FileRef{{Name: "in", CacheName: seedCN}},
			Outputs: []string{"out"},
			Cores:   1,
		})
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	// Wait until the doomed shard has accepted work, then kill it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if leased, _ := fed.Foremen[0].Counts(); leased > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("shard-0 never accepted a lease")
		}
		time.Sleep(time.Millisecond)
	}
	fed.Foremen[0].Crash()

	for i, h := range hs {
		if err := h.Wait(30 * time.Second); err != nil {
			t.Fatalf("task %d did not survive foreman crash: %v", i, err)
		}
		cn, _ := h.Output("out")
		data, err := fed.Root.FetchBytes(cn)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("ECHO:X!%d", i); string(data) != want {
			t.Fatalf("task %d: got %q want %q", i, data, want)
		}
	}
	st := fed.Root.FederationStats()
	if st.Foremen != 1 {
		t.Fatalf("live foremen after crash = %d: %+v", st.Foremen, st)
	}
	alive := 0
	for _, sh := range st.Shards {
		if sh.Alive {
			alive++
			if sh.TasksDone == 0 {
				t.Fatalf("survivor shard ran nothing: %+v", st.Shards)
			}
		}
	}
	if alive != 1 {
		t.Fatalf("shard snapshot: %+v", st.Shards)
	}
}

// TestFederationDependentChainLatency pins event-driven reporting: on a
// tree of 1-core shards in the default configuration, each step of a
// dependent chain waits for its producer's completion to reach the root.
// A periodic 200 ms report tick made that a 16 × 200 ms = 3.2 s floor; a
// completion now crosses the foreman within the 1 ms microbatch.
func TestFederationDependentChainLatency(t *testing.T) {
	const steps = 16
	fed := newFedCfg(t, LocalConfig{Foremen: 2, WorkersPerForeman: 1, CoresPerWorker: 1})
	start := time.Now()
	h, err := fed.Root.SubmitFunc(ModeTask, "fedlib", "echo", []byte("0"), "out")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < steps; i++ {
		prev, _ := h.Output("out")
		h, err = fed.Root.Submit(Task{
			Mode: ModeTask, Library: "fedlib", Func: "next",
			Args:    []byte(fmt.Sprintf(",%d", i)),
			Inputs:  []FileRef{{Name: "in", CacheName: prev}},
			Outputs: []string{"out"},
			Cores:   1,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Wait(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	cn, _ := h.Output("out")
	data, err := fed.Root.FetchBytes(cn)
	if err != nil {
		t.Fatal(err)
	}
	want := "echo:0"
	for i := 1; i < steps; i++ {
		want += fmt.Sprintf(",%d", i)
	}
	if string(data) != want {
		t.Fatalf("chain output %q, want %q", data, want)
	}
	if elapsed > 1600*time.Millisecond {
		t.Fatalf("%d-step chain took %v; completions are waiting on a report tick", steps, elapsed)
	}
}

// TestFederationReportsCoalesce pins the other half of the microbatch: a
// burst of independent tasks leased ahead onto the shards reports upward
// in far fewer frames than tasks.
func TestFederationReportsCoalesce(t *testing.T) {
	const tasks = 256
	fed := newFedCfg(t, LocalConfig{Foremen: 2, WorkersPerForeman: 1, CoresPerWorker: 2, LeaseAhead: tasks / 4})
	var hs []*TaskHandle
	for i := 0; i < tasks; i++ {
		h, err := fed.Root.SubmitFunc(ModeTask, "fedlib", "noop", []byte(fmt.Sprintf("b%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	for i, h := range hs {
		if err := h.Wait(30 * time.Second); err != nil {
			t.Fatalf("task %d: %v", i, err)
		}
	}
	reports := fed.Root.Metrics().Counter("vine_foreman_reports_total").Value()
	t.Logf("%d report frames for %d tasks", reports, tasks)
	if reports < 1 || reports > tasks/2 {
		t.Fatalf("%d report frames for %d tasks; completions are not coalescing", reports, tasks)
	}
}

// TestForemanStopWithPendingReport stops a shard while completions are
// queued behind an armed microbatch timer: Stop/Crash must return with
// the timer disarmed or run out against a stopped foreman, neither
// sending nor growing the report, later completions must be dropped, and
// the root must finish every task on the surviving shard.
func TestForemanStopWithPendingReport(t *testing.T) {
	for _, crash := range []bool{false, true} {
		t.Run(fmt.Sprintf("crash=%v", crash), func(t *testing.T) {
			fed := newFed(t, 2, 1)
			var hs []*TaskHandle
			for i := 0; i < 64; i++ {
				h, err := fed.Root.SubmitFunc(ModeTask, "fedlib", "echo", []byte(fmt.Sprintf("p%d", i)), "out")
				if err != nil {
					t.Fatal(err)
				}
				hs = append(hs, h)
			}
			doomed := fed.Foremen[0]
			deadline := time.Now().Add(10 * time.Second)
			for {
				if _, done := doomed.Counts(); done > 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("shard-0 never completed a lease")
				}
				time.Sleep(100 * time.Microsecond)
			}
			// A completion that lands now arms a flush the shutdown outruns.
			doomed.finish(leaseDoneWire{TaskID: -1, Error: "late"})
			if crash {
				doomed.Crash()
			} else {
				doomed.Stop()
			}
			doomed.mu.Lock()
			pending, done, armed := len(doomed.results), doomed.done, doomed.flushT != nil
			doomed.mu.Unlock()
			if armed {
				t.Fatal("report flush still armed after shutdown returned")
			}

			doomed.finish(leaseDoneWire{TaskID: -2, Error: "after stop"})
			doomed.mu.Lock()
			if len(doomed.results) != pending || doomed.done != done || doomed.flushT != nil {
				t.Errorf("stopped foreman kept collecting: results %d -> %d, done %d -> %d, armed %v",
					pending, len(doomed.results), done, doomed.done, doomed.flushT != nil)
			}
			// A timer that had already fired when shutdown tried to disarm
			// it runs its body against the stopped foreman.
			doomed.results = append(doomed.results, leaseDoneWire{TaskID: -3})
			pending = len(doomed.results)
			doomed.wg.Add(1)
			doomed.mu.Unlock()
			doomed.flushReport()
			doomed.mu.Lock()
			if len(doomed.results) != pending {
				t.Errorf("timer fired after shutdown shipped the report: results %d -> %d", pending, len(doomed.results))
			}
			doomed.mu.Unlock()

			for i, h := range hs {
				if err := h.Wait(30 * time.Second); err != nil {
					t.Fatalf("task %d: %v", i, err)
				}
				cn, _ := h.Output("out")
				data, err := fed.Root.FetchBytes(cn)
				if err != nil {
					t.Fatal(err)
				}
				if want := fmt.Sprintf("echo:p%d", i); string(data) != want {
					t.Fatalf("task %d: got %q want %q", i, data, want)
				}
			}
		})
	}
}
