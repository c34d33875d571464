GO ?= go

.PHONY: build test verify verify-race race fuzz-smoke cover-xenstore cover-html bench bench-smoke bench-compare profile-smoke fsck-smoke gray-smoke cluster-smoke serve-smoke overload-smoke clean

# Newest checked-in benchmark report; bench-compare reruns its figures
# and fails on regression. Override with BASELINE=path to pin another.
BASELINE ?= $(lastword $(sort $(wildcard BENCH_*.json)))

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Tier-1 gate: build + vet + full tests (including the xenstore alloc
# budgets in internal/xenstore/alloc_test.go), then the race detector
# over the packages the parallel engine touches, then the benchmark
# regression gate against the checked-in baseline report.
verify: build
	$(GO) vet ./...
	$(GO) test ./...
	$(GO) test -race ./internal/experiments ./internal/xenstore ./internal/sim ./internal/profiling ./internal/cluster ./internal/toolstack ./internal/traffic ./cmd/lightvm-bench
	$(MAKE) bench-compare

# Full gate with the race detector over every package (slower than
# `verify`, which races only the concurrency-bearing ones).
verify-race: build
	$(GO) vet ./...
	$(GO) test -race ./...

race:
	$(GO) test -race ./...

# 20-second smoke of each xenstore fuzz target (native Go fuzzing,
# seeded by the checked-in corpora under
# internal/xenstore/testdata/fuzz plus the f.Add seeds).
fuzz-smoke:
	$(GO) test ./internal/xenstore -run '^$$' -fuzz '^FuzzPath$$' -fuzztime 20s
	$(GO) test ./internal/xenstore -run '^$$' -fuzz '^FuzzSnapshotRoundTrip$$' -fuzztime 20s

# Line-coverage gate for the store: the unit suite plus the
# model-checking harness must keep internal/xenstore at or above 80%.
cover-xenstore:
	$(GO) test ./internal/xenstore -coverprofile=xenstore.cover > /dev/null
	@$(GO) tool cover -func=xenstore.cover | awk '/^total:/ { print "xenstore line coverage: " $$3; if ($$3 + 0 < 80) { print "FAIL: below the 80% gate"; exit 1 } }'
	@rm -f xenstore.cover

# Coverage HTML for the xenstore suite (uploaded as a CI artifact).
cover-html:
	$(GO) test ./internal/xenstore -coverprofile=xenstore.cover > /dev/null
	$(GO) tool cover -html=xenstore.cover -o coverage-xenstore.html
	@rm -f xenstore.cover

# Profiling smoke: one store-heavy figure at small scale with CPU+heap
# capture. Asserts both pprof files were written non-empty and that the
# JSON report carries the subsystem attribution block.
profile-smoke:
	$(GO) run ./cmd/lightvm-bench -exp fig12a -scale 0.05 -parallel 1 \
		-profile=cpu,heap -profile-dir profiles -json -out profiles/profile-smoke.json
	@for f in profiles/fig12a.cpu.pb.gz profiles/fig12a.heap.pb.gz; do \
		[ -s $$f ] || { echo "FAIL: $$f missing or empty"; exit 1; }; \
	done
	@grep -q '"heap_delta_bytes"' profiles/profile-smoke.json \
		|| { echo "FAIL: no attribution block in profiles/profile-smoke.json"; exit 1; }
	@echo "profile-smoke: per-figure profiles and attribution OK"

# Crash-consistency gate: run the churn figure (which injects
# toolstack crashes at every labeled crash point) and then audit every
# environment the run built with the cross-layer invariant checker.
# Any violation makes lightvm-bench exit non-zero. Also asserts the
# JSON report carries the per-crash-point counters.
fsck-smoke:
	$(GO) run ./cmd/lightvm-bench -exp ext-churn -scale 0.05 -seed 2 -parallel 1 \
		-fsck -json -out fsck-smoke.json
	@grep -q '"crash_sites"' fsck-smoke.json \
		|| { echo "FAIL: no crash_sites block in fsck-smoke.json"; exit 1; }
	@grep -q '"fsck"' fsck-smoke.json \
		|| { echo "FAIL: no fsck block in fsck-smoke.json"; exit 1; }
	@rm -f fsck-smoke.json
	@echo "fsck-smoke: crash churn scrubbed to zero violations"

# Gray-failure gate: a small ext-gray sweep (heartbeat detection,
# fenced failover) plus the cross-layer fsck audit. The generator
# itself enforces zero double-starts and zero fsck violations per
# cell — a split-brain or a dirty post-drain state fails the command —
# and -fsck re-audits every environment the run built.
gray-smoke:
	$(GO) run ./cmd/lightvm-bench -exp ext-gray -scale 0.05 -seed 3 -parallel 1 \
		-fsck -json -out gray-smoke.json
	@grep -q '"fsck"' gray-smoke.json \
		|| { echo "FAIL: no fsck block in gray-smoke.json"; exit 1; }
	@rm -f gray-smoke.json
	@echo "gray-smoke: fenced failover with zero double-starts"

# Sharded-cluster gate: ext-cluster at small scale — the full
# controller/agent protocol (placement waves, heartbeat-detected
# failover, fenced re-placement, live migration) on the parallel
# engine, swept over worker counts 1/2/8 with the in-run byte-equality
# check, then the cross-layer fsck audit over every environment the
# run built. Determinism or invariant violations fail the command.
cluster-smoke:
	$(GO) run ./cmd/lightvm-bench -exp ext-cluster -scale 0.02 -seed 1 -parallel 1 -fsck
	@echo "cluster-smoke: sharded churn byte-identical across engine worker counts"

# Open-loop serving gate: one small ext-serve run — seeded arrival
# processes driving per-request unikernels, warm pools (reactive and
# predictive), container and process baselines — with the generator's
# own p99 ordering gate (warm pool < cold VM < container on
# boot-dominated cells) and the cross-layer fsck audit over every host
# the run built.
serve-smoke:
	$(GO) run ./cmd/lightvm-bench -exp ext-serve -scale 0.05 -seed 1 -parallel 1 -fsck
	@echo "serve-smoke: tail ordering holds; hosts fsck clean"

# Overload gate: one small ext-overload run — offered load swept
# through and past each mode's calibrated capacity with the retry
# storm armed. The generator itself asserts the metastability
# signature (defenses off: post-burst goodput collapses below half of
# pre-burst; defenses on: it recovers to >= 95% with a bounded p99),
# so a recovery failure fails the command; -fsck re-audits every host
# the run built.
overload-smoke:
	$(GO) run ./cmd/lightvm-bench -exp ext-overload -scale 0.05 -seed 1 -parallel 1 -fsck
	@echo "overload-smoke: metastable collapse reproduced and defended; hosts fsck clean"

# Full-scale replay of every figure with a JSON timing report.
bench:
	$(GO) run ./cmd/lightvm-bench -exp all -parallel 0 -json

# Quick end-to-end pass at 5% scale — exercises every generator, the
# worker pool and the JSON report in a few seconds. The extra
# ext-faults line runs the fault-injection sweep at tiny scale with a
# distinct seed, so the recovery paths get an end-to-end shake too.
bench-smoke:
	$(GO) run ./cmd/lightvm-bench -exp all -scale 0.05 -parallel 0 -json
	$(GO) run ./cmd/lightvm-bench -exp ext-faults -scale 0.02 -seed 7 -parallel 0

# Regression gate: replay every figure at smoke scale with the same
# seed as the checked-in baseline and diff the two reports with
# cmd/benchdiff. Sequential (-parallel 1) so allocation counts are
# recorded (parallel runs omit them); the wall threshold is generous because CI
# runners jitter, while allocation counts are deterministic and gated
# tightly.
# -shards 2 pins the sharded-cluster figures to one engine worker
# count: their tables are identical at every count (gated elsewhere),
# and skipping the in-run 1/2/8 sweep keeps the gate fast.
bench-compare:
	@[ -n "$(BASELINE)" ] || { echo "bench-compare: no BENCH_*.json baseline checked in"; exit 1; }
	@echo "bench-compare: baseline $(BASELINE)"
	$(GO) run ./cmd/lightvm-bench -exp all -scale 0.05 -seed 1 -parallel 1 -shards 2 -json -out bench-fresh.json
	$(GO) run ./cmd/benchdiff -max-wall 75 -max-alloc 10 $(BASELINE) bench-fresh.json
	@rm -f bench-fresh.json

clean:
	rm -f *.cover coverage-xenstore.html fsck-smoke.json gray-smoke.json bench-fresh.json
	rm -rf profiles
