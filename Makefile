GO ?= go

.PHONY: build test vet fmt race verify examples bench bench-quick bench-json bench-shards bench-read bench-resize bench-recovery bench-scenario bench-writers bench-wire bench-consistency test-wire test-ucperf fuzz

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmt fails when any file needs gofmt.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "$$out"; exit 1; fi

# race runs every package's tests under the race detector — the whole
# tree, not name patterns that stop matching when a test is renamed:
# resharding, the chaos schedules, the parallel simulator, the lock-free
# intake's oracle suites, the object kit and the wire suite all run here.
race:
	$(GO) test -race ./...

# verify is the tier-1 gate plus the race run: one command for CI and
# reviewers.
verify: build vet fmt test race

# examples builds AND runs every examples/* binary, so API drift in an
# example fails the target (and CI) instead of rotting silently.
examples:
	@set -e; for d in examples/*/; do \
		echo "== $$d"; \
		$(GO) run ./$$d >/dev/null; \
	done

# bench runs the full -benchmem suite.
bench:
	$(GO) test -run xxx -bench . -benchmem .

# bench-quick prints the hot-path table in seconds, without updating
# the recorded trajectory.
bench-quick:
	$(GO) run ./cmd/ucbench -exp hotpath -quick

# bench-shards prints the E14 shard-scaling table (1/2/4/8 shards).
bench-shards:
	$(GO) run ./cmd/ucbench -exp shards

# bench-read prints the E15 read-mostly cache and E16 backlog-step
# tables.
bench-read:
	$(GO) run ./cmd/ucbench -exp readmostly,stepbacklog

# bench-resize prints the E17 live-resharding table (throughput dip
# and recovery across a 2→8 resize).
bench-resize:
	$(GO) run ./cmd/ucbench -exp resize

# bench-recovery prints the E18 table: time-to-convergence after a
# long fault, backlog redelivery vs anti-entropy digest sync.
bench-recovery:
	$(GO) run ./cmd/ucbench -exp recovery

# bench-scenario prints the E19 table: scenario generator at scale,
# parallel adversary steps/sec vs worker count (critical-path basis).
bench-scenario:
	$(GO) run ./cmd/ucbench -exp scenario

# bench-writers prints the E20 table: single-replica update throughput
# under 1/2/4/8 in-process writers, mutex engine vs the lock-free
# intake (WithLockFreeWriters), plus the contended-update Go benchmarks.
bench-writers:
	$(GO) run ./cmd/ucbench -exp writers
	$(GO) test -run xxx -bench ContendedUpdate -benchmem .

# bench-wire prints the E21 table: the insert workload on real ucserve
# daemon processes over loopback TCP (batching off and at the default
# threshold) against the in-process LiveNetwork baseline.
bench-wire:
	$(GO) run ./cmd/ucbench -exp wire

# test-wire runs the loopback wire-transport suite under the race
# detector: the TCP transport and mailbox unit tests, the byte-level
# anti-entropy exchange, in-process daemon clusters for every object
# kind, the client protocol and garbage-frame rejection, and the real
# multi-process ucserve suite (three object kinds, CLI client, and
# kill -9 + restart repaired by the on-connect digest exchange).
test-wire:
	$(GO) test -race -run 'TestTCP|TestMailbox|Wire' ./internal/transport/ ./internal/core/ .

# test-ucperf vets and tests the regression instrument. benchmark/ is
# a module of its own (it imports this one through a replace), so the
# root's build/vet/test never compile it: an internal/ API change that
# breaks ucperf fails here instead of at the next benchmark run.
test-ucperf:
	cd benchmark && $(GO) vet . && $(GO) test -race .

# fuzz runs a short coverage-guided pass over the byte-level decoders
# that face the network: the wire-frame envelope codec, the batch frame
# iterator, and the two halves of the anti-entropy exchange (a peer's
# digest, a donor's sync reply). The seed corpora also run under plain
# `go test`.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzEnvelopeDecode -fuzztime 10s ./internal/transport/
	$(GO) test -run '^$$' -fuzz FuzzBatchFrame -fuzztime 10s ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzApplySync -fuzztime 10s ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzWireDigest -fuzztime 10s ./internal/core/

# bench-consistency prints the E22 table: the same workload folded at
# the causal and update-consistent levels, on commutative objects
# (counter, countermap — both converge, causal is cheaper) and a
# non-commutative one (log — causal diverges, arbitration is the price
# of convergence).
bench-consistency:
	$(GO) run ./cmd/ucbench -exp consistency

# bench-json refreshes the recorded perf trajectory (hot paths, shard
# scaling, read caches, adversary step, live resharding, recovery,
# scenario scaling). Set LABEL to this PR's entry; the matching entry
# in the trajectory's runs array is replaced, the rest are preserved
# and kept sorted by label.
LABEL ?= dev
bench-json:
	$(GO) run ./cmd/ucbench -exp hotpath,shards,readmostly,stepbacklog,resize,recovery,scenario,writers,wire,consistency -json BENCH_ucbench.json -label $(LABEL)
