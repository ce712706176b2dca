package gate

import (
	"net/http/httptest"
	"testing"
	"time"

	"hepvine/internal/foreman"
	"hepvine/internal/vine"
)

// TestGateFrontsFederatedRoot pins the composition the federation was
// designed for: the root of a foreman tree IS a vine.Manager, so the
// multi-tenant HTTP gate fronts it unchanged — submissions admit at the
// gate, lease out to shards, and results fetch back through cross-shard
// replica addresses, with zero gate-side special-casing.
func TestGateFrontsFederatedRoot(t *testing.T) {
	registerGateLib(t)
	fed, err := foreman.NewLocalFederation(foreman.LocalConfig{
		Foremen:           2,
		WorkersPerForeman: 1,
		CoresPerWorker:    2,
		LocalOptions: func(int) []vine.Option {
			return []vine.Option{
				vine.WithPeerTransfers(true),
				vine.WithLibrary("gatelib", true),
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fed.Stop()
	if err := fed.Root.WaitForWorkers(2, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	g := New(fed.Root, Config{})
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
	c := &Client{Base: srv.URL, Tenant: "alice"}

	if _, err := c.OpenSession("fedweb"); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Submit("fedweb", SubmitRequest{Tasks: []TaskSpec{
		echoSpec("a", "one"), echoSpec("b", "two"), echoSpec("c", "three"),
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i, tk := range resp.Tasks {
		st, err := c.WaitTask("fedweb", tk.ID, 15*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != "done" {
			t.Fatalf("task %d state %s (%s)", i, st.State, st.Error)
		}
	}
	st, err := c.WaitTask("fedweb", resp.Tasks[0].ID, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	data, err := c.Fetch(st.Outputs["out"])
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "echo:one" {
		t.Fatalf("fetched %q through federated root", data)
	}
	if fst := fed.Root.FederationStats(); fst.LeaseGrants < 3 {
		t.Fatalf("gate work did not lease to shards: %+v", fst)
	}
}
