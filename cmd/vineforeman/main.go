// Command vineforeman is a standalone foreman: the middle tier of a
// federated cluster. It registers with a root manager (started by
// cmd/vinerun or cmd/vinegate) as one high-capacity shard, runs its own
// local manager for workers to dial — vineworker -manager <this> — and
// relays batched task leases downward and aggregated completion reports
// upward, so the root's control traffic stays per-shard, not per-task.
//
//	vineforeman -root 127.0.0.1:9123 -listen 0.0.0.0:9200 -cores 48 [-name rack7]
//
// With -roots, the foreman knows the root cluster's full manager address
// list (primary first, hot standbys after) and redials its uplink
// through it on failover. With -pool-max, the foreman additionally runs
// a local autoscaled worker pool in-process — the single-binary shard
// for laptops and CI.
//
// SIGINT/SIGTERM stop the foreman gracefully: the uplink closes first so
// the root re-homes outstanding leases, then the local manager stops.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hepvine/internal/apps"
	"hepvine/internal/daskvine"
	"hepvine/internal/foreman"
	"hepvine/internal/pool"
	"hepvine/internal/vine"
)

func main() {
	root := flag.String("root", "", "root manager control address (host:port), required")
	roots := flag.String("roots", "", "comma-separated standby root addresses to redial the uplink through on failover")
	name := flag.String("name", "", "shard name the root sees (default: foreman)")
	listen := flag.String("listen", "", "local manager listen address workers dial (default: ephemeral loopback)")
	hoist := flag.Bool("hoist", true, "hoist library imports when installing on shard workers")
	cores := flag.Int("cores", 0, "aggregate cores advertised to the root, required")
	memory := flag.Int64("memory", 0, "aggregate memory advertised to the root; 0 = unlimited")
	poolMax := flag.Int("pool-max", 0, "run a local autoscaled worker pool up to this many workers (0 = workers dial in externally)")
	poolMin := flag.Int("pool-min", 0, "with -pool-max, the pool floor")
	poolCores := flag.Int("pool-cores", 4, "with -pool-max, cores per pooled worker")
	flag.Parse()

	if *root == "" || *cores <= 0 {
		fmt.Fprintln(os.Stderr, "vineforeman: -root and -cores are required")
		flag.Usage()
		os.Exit(2)
	}

	// The shard's local manager installs libraries on its own workers, so
	// the foreman binary must know every library the root may lease work
	// against — same registry as vineworker.
	apps.RegisterProcessors()
	if err := vine.RegisterLibrary(daskvine.NewLibrary(100 * time.Millisecond)); err != nil {
		log.Fatal(err)
	}

	var fallbacks []string
	for _, a := range strings.Split(*roots, ",") {
		if a = strings.TrimSpace(a); a != "" {
			fallbacks = append(fallbacks, a)
		}
	}
	opts := foreman.Options{
		Name:          *name,
		RootAddr:      *root,
		RootFallbacks: fallbacks,
		Cores:         *cores,
		Memory:        *memory,
		Local: []vine.Option{
			vine.WithPeerTransfers(true),
			vine.WithListenAddr(*listen),
			// The shard's local manager installs leased-against libraries
			// on its own workers — without this, function-call leases park
			// forever waiting for a library no worker ever receives.
			vine.WithLibrary(daskvine.LibraryName, *hoist),
		},
	}
	if *poolMax > 0 {
		opts.Autoscale = &pool.Config{Min: *poolMin, Max: *poolMax}
		opts.WorkerOptions = func(wname string) []vine.Option {
			return []vine.Option{vine.WithName(wname), vine.WithCores(*poolCores)}
		}
	}
	f, err := foreman.New(opts)
	if err != nil {
		log.Fatalf("vineforeman: %v", err)
	}
	log.Printf("foreman %s: %d cores advertised to root %s, workers dial %s",
		f.Name(), *cores, *root, f.LocalAddr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	s := <-sig
	log.Printf("foreman %s: %v, shutting down", f.Name(), s)
	f.Stop()
	leased, done := f.Counts()
	log.Printf("foreman %s: %d leases accepted, %d completions reported", f.Name(), leased, done)
}
