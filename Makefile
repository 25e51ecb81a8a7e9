GO ?= go

.PHONY: build test vet fmt race stress verify examples bench bench-recovery bench-consistency test-wire test-ucperf fuzz

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
# resharding, the chaos schedules, the concurrent-writer suites (with
# and without GC), the object kit and the wire suite all run here.
race:
	$(GO) test -race ./...

# stress repeats the suites where a race or a send-order slip shows up
# only sometimes — the wire cluster, concurrent writers on one handle
# (with GC, at both consistency levels), per-origin stamp order at the
# transport, a lone update sent without help, the causal gate on every
# path — twenty times plain and three times under the race detector
# (-short: three GC rounds instead of twenty, no multi-process daemons).
stress:
	$(GO) test -count=20 -run 'Wire|Concurrent|StampOrder|SentWithoutHelp|Causal' . ./internal/core
	$(GO) test -race -short -count=3 -run 'Wire|Concurrent|StampOrder|SentWithoutHelp|Causal' . ./internal/core

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

# bench runs the full -benchmem suite. One benchmark is worth running on
# its own with repeats, now that no ucbench table records it: contended
# in-process writers on one handle,
# `go test -run xxx -bench ContendedUpdate -benchmem -count 10 .`
bench:
	$(GO) test -run xxx -bench . -benchmem .

# bench-recovery prints the E18 table: time-to-convergence after a
# long fault, backlog redelivery vs anti-entropy digest sync.
bench-recovery:
	$(GO) run ./cmd/ucbench -exp recovery

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
# that face the network: the wire-frame envelope codec and the hello, the
# run decoder behind every sync reply and snapshot suffix and the step
# decoder behind every broadcast delivery, the snapshot as a whole, and
# the two halves of the anti-entropy exchange (a peer's digest, a donor's
# sync reply), a client's query as a daemon
# decodes and evaluates it, a client's frame stream as the daemon batches
# and answers it, and a daemon's answer as a client decodes it.
# The seed corpora also run under plain `go test`.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzEnvelopeDecode -fuzztime 10s ./internal/transport/
	$(GO) test -run '^$$' -fuzz FuzzHello -fuzztime 10s ./internal/transport/
	$(GO) test -run '^$$' -fuzz FuzzSnapshot -fuzztime 10s ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzBatchFrame -fuzztime 10s ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzApplySync -fuzztime 10s ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzWireDigest -fuzztime 10s ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzClientQuery -fuzztime 10s .
	$(GO) test -run '^$$' -fuzz FuzzClientIntake -fuzztime 10s .
	$(GO) test -run '^$$' -fuzz FuzzQueryOutput -fuzztime 10s ./internal/spec/

# bench-consistency prints the E22 table: the same workload at the
# update-consistent level and at the causal level — the same log with
# gated visibility — on commutative objects (counter, countermap) and a
# non-commutative one (log). Both levels converge on every object; the
# table prices the gate (throughput, arrivals held back per update).
bench-consistency:
	$(GO) run ./cmd/ucbench -exp consistency
