package foreman

import (
	"fmt"
	"time"

	"hepvine/internal/params"
	"hepvine/internal/sched"
	"hepvine/internal/vine"
)

// LocalConfig sizes an in-process federation: one root manager, Foremen
// shards, and WorkersPerForeman workers in each shard. Zero values take
// the pinned defaults.
type LocalConfig struct {
	Foremen           int
	WorkersPerForeman int
	CoresPerWorker    int
	// LeaseAhead multiplies the advertised shard capacity, letting the
	// root lease ahead of the real core count so each shard keeps a local
	// queue and its cores never sit idle for a lease round trip to the
	// root. 0/1 advertises the exact core count (strictest placement;
	// cross-shard spillover happens as soon as real cores fill).
	LeaseAhead int
	// RootOptions extend the root manager (a federate scheduling policy is
	// installed by default; later options win, so callers can override).
	RootOptions []vine.Option
	// LocalOptions extends every shard's local manager.
	LocalOptions func(shard int) []vine.Option
	// WorkerOptions extends every worker. Workers are always given the
	// sibling shard addresses as fallback managers plus a redial budget,
	// so they re-home when their foreman dies.
	WorkerOptions func(shard, n int) []vine.Option
}

// LocalFederation is a loopback shard tree for tests, benchmarks, and
// vinerun: every tier in one process, all traffic over real TCP.
type LocalFederation struct {
	Root    *vine.Manager
	Foremen []*Foreman
	Workers [][]*vine.Worker
}

// NewLocalFederation builds the tree bottom-tier-last: root, then every
// foreman (so each registers its uplink), then the workers — each dialing
// its own shard first with every sibling shard as a re-home fallback.
func NewLocalFederation(cfg LocalConfig) (*LocalFederation, error) {
	if cfg.Foremen <= 0 {
		cfg.Foremen = params.DefaultForemanFanout
	}
	if cfg.WorkersPerForeman <= 0 {
		cfg.WorkersPerForeman = 2
	}
	if cfg.CoresPerWorker <= 0 {
		cfg.CoresPerWorker = 2
	}
	fed := &LocalFederation{}
	root, err := vine.NewManager(append([]vine.Option{
		vine.WithName("root"),
		vine.WithScheduler(sched.Federate()),
	}, cfg.RootOptions...)...)
	if err != nil {
		return nil, fmt.Errorf("federation: root: %w", err)
	}
	fed.Root = root
	shardCores := cfg.WorkersPerForeman * cfg.CoresPerWorker
	if cfg.LeaseAhead > 1 {
		shardCores *= cfg.LeaseAhead
	}
	for i := 0; i < cfg.Foremen; i++ {
		var local []vine.Option
		if cfg.LocalOptions != nil {
			local = cfg.LocalOptions(i)
		}
		fm, err := New(Options{
			Name:     fmt.Sprintf("shard-%d", i),
			RootAddr: root.Addr(),
			Cores:    shardCores,
			Local:    local,
		})
		if err != nil {
			fed.Stop()
			return nil, err
		}
		fed.Foremen = append(fed.Foremen, fm)
	}
	for i, fm := range fed.Foremen {
		var ws []*vine.Worker
		// Sibling shards, in rotation starting after this one, are the
		// re-home targets when this foreman dies.
		var siblings []string
		for k := 1; k < len(fed.Foremen); k++ {
			siblings = append(siblings, fed.Foremen[(i+k)%len(fed.Foremen)].LocalAddr())
		}
		for n := 0; n < cfg.WorkersPerForeman; n++ {
			opts := []vine.Option{
				vine.WithName(fmt.Sprintf("shard-%d-w%d", i, n)),
				vine.WithCores(cfg.CoresPerWorker),
				vine.WithManagers(siblings...),
				vine.WithReconnect(40, 25*time.Millisecond),
			}
			if cfg.WorkerOptions != nil {
				opts = append(opts, cfg.WorkerOptions(i, n)...)
			}
			w, err := vine.NewWorker(fm.LocalAddr(), opts...)
			if err != nil {
				fed.Stop()
				return nil, fmt.Errorf("federation: shard %d worker %d: %w", i, n, err)
			}
			ws = append(ws, w)
		}
		fed.Workers = append(fed.Workers, ws)
	}
	return fed, nil
}

// Stop tears the federation down leaves-first.
func (f *LocalFederation) Stop() {
	for _, ws := range f.Workers {
		for _, w := range ws {
			if w != nil {
				w.Stop()
			}
		}
	}
	for _, fm := range f.Foremen {
		if fm != nil {
			fm.Stop()
		}
	}
	if f.Root != nil {
		f.Root.Stop()
	}
}
