# Developer entry points. `make check` is the gate every change must
# pass: vet and gofmt, full build, full test suite, the race detector
# over the packages with concurrency (the binding engine's worker pool,
# the scheduler it fans out over, the store, the daemon, and the
# explorer's parallel points), and the benchmark module's vet and
# self-test.

GO ?= go
FUZZTIME ?= 30s

.PHONY: check vet build test race vbench-check fuzz-smoke chaos-smoke obs-smoke store-smoke serve-smoke explore-smoke bench bench-compare bench-parallel benchstat golden

check: vet build test race vbench-check

vet:
	$(GO) vet ./...
	test -z "$$(gofmt -l .)"

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/bind/... ./internal/sched/... ./internal/store/... ./internal/server/... ./internal/sigctx/... ./internal/explore/...

# The benchmark is its own module (cmd/vbench), so `go build ./...` and
# `go test ./...` never compile it. It imports internal packages and the
# facade; vet and self-test it here so a renamed identifier it depends
# on fails the gate instead of every benchmark run.
vbench-check:
	cd cmd/vbench && $(GO) vet ./... && $(GO) test ./...

# Short fuzzing pass over every native harness (the checked-in corpora
# under testdata/fuzz run on every plain `go test` already; this spends
# FUZZTIME per harness searching for new inputs). The Go fuzz engine
# accepts one -fuzz target per invocation, hence one line each. The
# bind/audit harness datapath tables include ring and point-to-point
# machines (one with multi-hop routes), so every pass here fuzzes the
# routed-interconnect paths alongside the shared bus.
fuzz-smoke:
	$(GO) test ./internal/audit -run '^$$' -fuzz '^FuzzBindRoundTrip$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/bind -run '^$$' -fuzz '^FuzzEvaluatorDifferential$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/codegen -run '^$$' -fuzz '^FuzzSpillRebind$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/textio -run '^$$' -fuzz '^FuzzTextioRoundTrip$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/textio -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME)

# Fault-injection sweep for the anytime contract: the seeded chaos
# schedules (which sweep a ring machine alongside the shared-bus ones)
# and every cancellation/panic-isolation test run under the race
# detector, then the cancellation fuzzer spends FUZZTIME searching for
# a cut point that breaks the degradation guarantees.
chaos-smoke:
	$(GO) test -race ./internal/bind -run 'Cancel|Degrade|Panic|Retr|Stats' -count 1
	$(GO) test -race ./internal/audit -run '^TestChaosSweep$$' -count 1
	$(GO) test ./internal/audit -run '^$$' -fuzz '^FuzzCancelAnytime$$' -fuzztime $(FUZZTIME)

# Observability smoke: one traced, metered, explained EWF binding via
# the real CLI (the journal must come back non-empty), then the vbind
# test that decodes every JSONL line and reconciles the journal's cache
# verdicts against the CacheStats counters the run reports.
obs-smoke:
	$(GO) run ./cmd/vbind -kernel EWF -algo iter -trace /tmp/vliwbind-obs.jsonl -metrics -explain
	@test -s /tmp/vliwbind-obs.jsonl || { echo "obs-smoke: trace journal is empty"; exit 1; }
	$(GO) run ./cmd/vbind -kernel EWF -dp '[1,1|1,1|1,1]' -topology ring -algo iter -trace /tmp/vliwbind-obs-ring.jsonl -metrics
	@test -s /tmp/vliwbind-obs-ring.jsonl || { echo "obs-smoke: ring trace journal is empty"; exit 1; }
	$(GO) test ./cmd/vbind -run '^TestObsSmoke$$' -count 1

# Result-store smoke: the store unit suite (journal round-trip,
# crash-safety replay, the isomorphic-collision property) and the facade
# tests that pin certification (once per result: hits on read, fresh
# results before they are published), then two CLI acceptance pairs —
# two vbind runs and two vliwpipe (modulo) runs, each pair sharing a
# -store-dir, where the first must miss and the second must be served
# from an audited hit — and finally the vbind test that reconciles
# store.* journal events against the reported counters.
store-smoke:
	$(GO) test ./internal/store -count 1
	$(GO) test . -run 'TestStore|TestModuloPipelineStored' -count 1
	@rm -rf /tmp/vliwbind-store-smoke
	$(GO) run ./cmd/vbind -kernel EWF -algo iter -store-dir /tmp/vliwbind-store-smoke | grep 'result store: 0 hit(s), 1 miss(es)'
	$(GO) run ./cmd/vbind -kernel EWF -algo iter -store-dir /tmp/vliwbind-store-smoke | grep 'result store: 1 hit(s), 0 miss(es)'
	@test -s /tmp/vliwbind-store-smoke/results.jsonl || { echo "store-smoke: journal is empty"; exit 1; }
	@rm -rf /tmp/vliwbind-store-smoke
	$(GO) run ./cmd/vliwpipe -store-dir /tmp/vliwbind-store-smoke | grep 'result store: 0 hit(s), 1 miss(es)'
	$(GO) run ./cmd/vliwpipe -store-dir /tmp/vliwbind-store-smoke | grep 'result store: 1 hit(s), 0 miss(es)'
	@rm -rf /tmp/vliwbind-store-smoke
	$(GO) test ./cmd/vbind -run '^TestStoreObsSmoke$$' -count 1

# Daemon lifecycle smoke through the real binaries: vliwbindd serves on
# an ephemeral port with a journal-backed store, vbindload replays a
# kernel-mix burst including one forced-degraded and one forced-rejected
# job (zero failures allowed), then the first SIGTERM must drain cleanly
# — admission closed, stragglers settled, journal flushed — and exit 0.
serve-smoke:
	$(GO) build -o /tmp/vliwbind-smoke-vliwbindd ./cmd/vliwbindd
	$(GO) build -o /tmp/vliwbind-smoke-vbindload ./cmd/vbindload
	@set -e; \
	dir=$$(mktemp -d /tmp/vliwbind-serve-smoke.XXXXXX); \
	/tmp/vliwbind-smoke-vliwbindd -addr 127.0.0.1:0 -addr-file $$dir/addr -store-dir $$dir/store -drain 10s 2>$$dir/log & \
	pid=$$!; \
	for i in $$(seq 1 100); do test -s $$dir/addr && break; sleep 0.1; done; \
	test -s $$dir/addr || { echo "serve-smoke: daemon never wrote its address"; cat $$dir/log; exit 1; }; \
	/tmp/vliwbind-smoke-vbindload -addr $$(cat $$dir/addr) -n 40 -c 4 -force-degraded -force-rejected | tee $$dir/report; \
	grep -E 'summary: ok=[1-9][0-9]* degraded=[1-9][0-9]* rejected=[1-9][0-9]* failed=0' $$dir/report >/dev/null \
		|| { echo "serve-smoke: burst outcomes are off (want ok>0, degraded>0, rejected>0, failed=0)"; exit 1; }; \
	kill -TERM $$pid; \
	wait $$pid || { echo "serve-smoke: daemon exited non-zero after SIGTERM"; cat $$dir/log; exit 1; }; \
	test -s $$dir/store/results.jsonl || { echo "serve-smoke: store journal missing after the drain"; cat $$dir/log; exit 1; }; \
	grep -q draining $$dir/log || { echo "serve-smoke: drain never logged"; cat $$dir/log; exit 1; }; \
	rm -rf $$dir; \
	echo "serve-smoke: clean burst, clean drain"

# Explorer smoke: a small exploration through the real CLI (table shape
# and frontier stars), its -json document decoded and cross-checked
# against the table by the cmd test, the pruned+parallel run compared
# line-for-line against the sequential unpruned sweep, and the engine
# property that the reported frontier equals a brute-force dominance
# recompute over the bound points.
explore-smoke:
	$(GO) run ./cmd/explore -kernel ARF -alus 3 -muls 2 -maxclusters 3 | grep 'DATAPATH'
	$(GO) run ./cmd/explore -kernel ARF -alus 3 -muls 2 -maxclusters 3 -json | grep '"points"' >/dev/null || { echo "explore-smoke: -json output has no points"; exit 1; }
	$(GO) test ./cmd/explore -run 'TestJSONOutput|TestExploreObsSmoke|TestPrunedAndParallelMatchSequential' -count 1
	$(GO) test ./internal/explore -run 'TestFrontierMatchesBruteForce|TestDeterministicAcrossPar|TestOptimisticIsLowerBound' -count 1

# The benchmark: cmd/vbench, specified by BENCHMARK.json. `make bench`
# runs every workload once (20 s of timed load each, seeded by
# BENCH_SEED; re-check a claim on a seed nobody tuned for) and leaves
# one ledger per workload under .bench_build/vbench/. `make bench-compare OLD=dir NEW=dir` compares two
# directories of such ledgers against the bounds in BENCHMARK.json and
# fails when an end-to-end metric got worse; give each side at least
# three runs (see cmd/vbench/README.md). OLD and NEW may be globs over
# one directory per run, e.g. OLD='old/run*'.
BENCH_SEED ?= 1
bench:
	@set -e; for w in bind-paper bind-random serve-mix explore-sweep; do \
		bash cmd/vbench/run.sh --workload $$w --seed $(BENCH_SEED) --seconds 20 --trace 0; \
	done

bench-compare:
	@test -n "$(OLD)" -a -n "$(NEW)" || { echo "usage: make bench-compare OLD=dir NEW=dir"; exit 2; }
	bash cmd/vbench/run.sh -compare $(OLD)/*.json -- $(NEW)/*.json

# Sequential-vs-parallel engine comparison on the largest kernel.
bench-parallel:
	$(GO) test -run xxx -bench 'BenchmarkParallel' -benchtime 3x .

# Micro-benchmarks for a before/after comparison, each -benchmem -count
# 6: the two evaluation paths (./internal/problem), one audit of a
# serve-mix working-set result (BenchmarkAudit, ./internal/audit) and
# one served store hit through the daemon's handler (BenchmarkServeHit,
# ./internal/server). Run it on both sides of a change and compare the
# two outputs. Needs the benchstat tool on PATH
# (golang.org/x/perf/cmd/benchstat); falls back to printing the raw
# -benchmem numbers when it is absent.
benchstat:
	$(GO) test ./internal/problem -run '^$$' -bench 'BenchmarkEvaluate' -benchmem -count 6 > /tmp/vliwbind-bench.txt
	$(GO) test ./internal/audit -run '^$$' -bench '^BenchmarkAudit$$' -benchmem -count 6 >> /tmp/vliwbind-bench.txt
	$(GO) test ./internal/server -run '^$$' -bench '^BenchmarkServeHit$$' -benchmem -count 6 >> /tmp/vliwbind-bench.txt
	@if command -v benchstat >/dev/null 2>&1; then \
		benchstat /tmp/vliwbind-bench.txt; \
	else \
		echo "benchstat not installed; raw numbers:"; \
		grep -E '^Benchmark' /tmp/vliwbind-bench.txt; \
	fi

# Rewrite the golden snapshots after an intentional result change.
golden:
	$(GO) test ./cmd/vliwtab -run TestGoldenTables -update
	$(GO) test ./cmd/dfgstat ./cmd/explore -run TestGoldenOutput -update
