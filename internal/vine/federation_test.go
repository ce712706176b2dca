package vine

import (
	"bytes"
	"testing"
)

// ---- wire ----

func TestLeaseFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := &message{Type: msgLease, Lease: &leaseBatchMsg{Leases: []leaseEntryWire{{
		TaskID: 42, Mode: "function-call", Library: "lib", Func: "f", Args: []byte("a"),
		Inputs:  []fileRefWire{{Name: "in", CacheName: "blob:abc"}},
		Outputs: []fileRefWire{{Name: "out", CacheName: "out:def:out"}},
		Cores:   2, Memory: 1 << 20,
		Tickets: []ticketWire{{CacheName: "blob:abc", Addr: "127.0.0.1:9999", Size: 77}},
	}}}}
	if err := writeFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != msgLease || out.Lease == nil || len(out.Lease.Leases) != 1 {
		t.Fatalf("lease frame lost: %+v", out)
	}
	e := out.Lease.Leases[0]
	if e.TaskID != 42 || len(e.Tickets) != 1 || e.Tickets[0].Addr != "127.0.0.1:9999" || e.Tickets[0].Size != 77 {
		t.Fatalf("lease entry lost data: %+v", e)
	}
}

func TestReportFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := &message{Type: msgReport, Report: &foremanReportMsg{
		Backlog: 3,
		Done: []leaseDoneWire{{
			TaskID: 7, OK: true,
			OutputSizes: map[string]int64{"out:x:o": 10},
			OutputAddrs: map[string]string{"out:x:o": "127.0.0.1:1234"},
			Lost:        []lostReplicaWire{{CacheName: "blob:dead", Addr: "127.0.0.1:6666", Corrupt: true}},
			ExecNanos:   5,
		}},
	}}
	if err := writeFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != msgReport || out.Report == nil || out.Report.Backlog != 3 {
		t.Fatalf("report frame lost: %+v", out)
	}
	d := out.Report.Done[0]
	if !d.OK || d.OutputAddrs["out:x:o"] != "127.0.0.1:1234" || !d.Lost[0].Corrupt {
		t.Fatalf("report entry lost data: %+v", d)
	}
}

// TestDecodeLeaseCacheNameInvariant pins the federation's core identity:
// a lease decoded on the shard side rebuilds a task spec whose definition
// hash — and therefore whose content-addressed output cachenames — match
// what the root computed. Without this, shard re-execution would publish
// results under names the root never looks up.
func TestDecodeLeaseCacheNameInvariant(t *testing.T) {
	inputs := []FileRef{{Name: "in", CacheName: blobName([]byte("payload"))}}
	h := taskDefHash("function-call", "lib", "fn", []byte("args"), inputs)
	wire := leaseEntryWire{
		TaskID: 9, Mode: "function-call", Library: "lib", Func: "fn", Args: []byte("args"),
		Inputs:  []fileRefWire{{Name: "in", CacheName: string(inputs[0].CacheName)}},
		Outputs: []fileRefWire{{Name: "out", CacheName: string(outputName(h, "out"))}},
	}
	task := wire.task()
	got := taskDefHash(string(task.Mode), task.Library, task.Func, task.Args, task.Inputs)
	if got != h {
		t.Fatalf("decoded spec hashes to %s, root computed %s", got, h)
	}
	if want := CacheName(wire.Outputs[0].CacheName); outputName(got, "out") != want {
		t.Fatalf("output cachename mismatch: %s vs %s", outputName(got, "out"), want)
	}
}

// ---- external replicas (the shard side of a peer-transfer ticket) ----

func TestExternalReplicaLifecycle(t *testing.T) {
	m, err := NewManager()
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	cn := blobName([]byte("ticketed"))
	hasSource := func() bool {
		m.mu.Lock()
		defer m.mu.Unlock()
		return m.hasSourceLocked(cn)
	}
	if hasSource() {
		t.Fatal("unknown file has a source")
	}
	m.addExternalReplica(cn, 99, "127.0.0.1:7001")
	m.addExternalReplica(cn, 99, "127.0.0.1:7002")
	m.addExternalReplica(cn, 99, "127.0.0.1:7001") // duplicate: ignored
	if !hasSource() {
		t.Fatal("external replica does not count as a source")
	}
	m.mu.Lock()
	fs := m.files[cn]
	if len(fs.ext) != 2 || fs.size != 99 || !fs.wasExt {
		m.mu.Unlock()
		t.Fatalf("ext state: %+v", fs)
	}
	// Rotation: staging retries walk the address list.
	if a, b := m.extAddrLocked(fs, 0), m.extAddrLocked(fs, 1); a == b {
		m.mu.Unlock()
		t.Fatalf("no rotation: %s / %s", a, b)
	}
	m.quarantineExternalLocked(cn, "127.0.0.1:7001")
	m.mu.Unlock()

	m.mu.Lock()
	bad := append([]string(nil), m.files[cn].extBad...)
	m.mu.Unlock()
	if len(bad) != 1 || bad[0] != "127.0.0.1:7001" {
		t.Fatalf("quarantine list: %v", bad)
	}
	if !hasSource() {
		t.Fatal("surviving external address should still be a source")
	}
	// A quarantined address must not resurrect through re-registration.
	m.addExternalReplica(cn, 99, "127.0.0.1:7001")
	m.mu.Lock()
	n := len(m.files[cn].ext)
	m.mu.Unlock()
	if n != 1 {
		t.Fatalf("quarantined address resurrected: %d ext addrs", n)
	}
	m.mu.Lock()
	m.quarantineExternalLocked(cn, "127.0.0.1:7002")
	m.mu.Unlock()
	if hasSource() {
		t.Fatal("all sources quarantined but hasSource still true")
	}
}

// TestReplicaInventoryServesManagerStore pins that files in the root
// store are offered in the reconnect inventory with the manager's own
// transfer address.
func TestReplicaInventoryServesManagerStore(t *testing.T) {
	m, err := NewManager()
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	cn := m.DeclareBuffer([]byte("0123456789"))
	inv := m.replicaInventory()
	found := false
	for _, e := range inv {
		if e.CacheName == string(cn) {
			found = true
			if e.Addr == "" || e.Size != 10 {
				t.Fatalf("inventory entry: %+v", e)
			}
		}
	}
	if !found {
		t.Fatalf("declared file missing from inventory: %v", inv)
	}
	m.mu.Lock()
	addr, size, ok := m.replicaInfoLocked(cn)
	m.mu.Unlock()
	if !ok || addr == "" || size != 10 {
		t.Fatalf("replicaInfoLocked = %s,%d,%v", addr, size, ok)
	}
}
