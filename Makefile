# Convenience targets; everything is plain `go` underneath.
# Run `make help` for the list.

.PHONY: help check test race chaos chaos-ha chaos-pool chaos-foreman gate bench bench-sched bench-recovery bench-warm bench-ha bench-gate bench-pool bench-foreman journal-fuzz verify paper examples tidy

help:                 ## list targets
	@grep -E '^[a-z]+: *##' $(MAKEFILE_LIST) | awk -F': *## *' '{printf "  %-10s %s\n", $$1, $$2}'

check:                ## full gate: vet + build + tests + full race pass + chaos smoke (use before sending a PR)
	go vet ./...
	go build ./...
	go test ./...
	go test -race ./...
	go test -race -count=1 -run TestChaosSoakDeterministic .

test:                 ## full test suite
	go build ./... && go vet ./... && go test ./...

race:                 ## race-detector pass over every package
	go test -race ./...

chaos:                ## deterministic chaos suite: kills, stall, dead replica, sole-replica loss, corrupt payloads, manager-kill resume
	go test -race -count=1 -v -run 'TestChaosSoakDeterministic|TestChaosSoakLineageRecovery|TestChaosCorruptTransferHealed|TestChaosManagerKillResume' .

chaos-ha:             ## availability suite: hot-standby failover soak + split-brain fencing regression
	go test -race -count=1 -v -run 'TestChaosFailoverToStandby|TestChaosFencedPrimaryRefusesDispatch' .

chaos-pool:           ## elasticity suite: autoscaled pool riding through a graceful drain + a blown grace window
	go test -race -count=1 -v -run 'TestChaosElasticPreemptionSoak' .

chaos-foreman:        ## federation suite: foreman killed mid-run (workers re-home to a sibling shard) and journaled root restarted under live foremen, bit-identical finish
	go test -race -count=1 -v -run 'TestChaosForemanKillRehome|TestChaosForemanRootRestart' .

gate:                 ## multi-tenant front door: race-enabled gate unit suite + two-tenant HTTP e2e smoke
	go test -race -count=1 ./internal/gate/
	go test -race -count=1 -v -run TestGateTwoTenantE2E .

bench:                ## one benchmark per table/figure, reduced scale
	go test -bench=. -benchmem ./...

bench-sched:          ## compare placement policies (locality/binpack/spread/random) on DV3-Medium
	go run ./cmd/vinebench -scale 0.25 sched

bench-recovery:       ## recovery overhead: faulted vs fault-free live run, bit-identical histograms
	go run ./cmd/vinebench -scale 0.25 recovery

bench-warm:           ## warm restart: cold vs warm vs crash-resume on DV3, tasks re-executed + wall-clock ratio
	go run ./cmd/vinebench -scale 0.25 warm

bench-ha:             ## hot-standby failover: takeover latency + re-executed tasks vs fault-free baseline
	go run ./cmd/vinebench -scale 0.25 ha

bench-gate:           ## multi-tenant gate: submissions/sec + p50/p99 submit-to-first-dispatch latency over HTTP
	go run ./cmd/vinebench -scale 0.25 gate

bench-pool:           ## elastic vs fixed pools under preemption: makespan, re-executed work, pool size over time
	go run ./cmd/vinebench -scale 0.25 pool

bench-foreman:        ## hierarchical foremen: tiny-task dispatch throughput flat vs 2/4-foreman trees + cross-shard bytes
	go run ./cmd/vinebench -scale 0.25 foreman

journal-fuzz:         ## journal frame-corruption fuzz with randomized seeds (pin one with JOURNAL_FUZZ_SEED=n)
	JOURNAL_FUZZ_SEED=$${JOURNAL_FUZZ_SEED:-0} go test -count=8 -v -run TestFrameCorruptionFuzz ./internal/journal/

verify:               ## assert every reproduced shape claim at paper scale
	go run ./cmd/vinebench -scale 1 verify

paper:                ## regenerate every table and figure at paper scale
	go run ./cmd/vinebench -scale 1 all

examples:             ## run every example end to end
	go run ./examples/quickstart
	go run ./examples/dv3
	go run ./examples/triphoton
	go run ./examples/serverless
	go run ./examples/remotedata
	go run ./examples/systematics
	go run ./examples/chaos
	go run ./examples/multitenant

tidy:                 ## gofmt + vet
	gofmt -w .
	go vet ./...
