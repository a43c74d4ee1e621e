# Developer entry points. The Go toolchain is the only dependency.

.PHONY: build test vet lint lint-fix-hints lint-bench lint-stats lint-hatches lint-mutants fuzz-smoke race check bench-smoke ci test-kernels test-exhaustive test-benchmark loc

build:
	go build ./...

test:
	go test ./...

# vet also type-checks the two packages with per-architecture files for a
# non-amd64 target, so an assembly routine without its portable counterpart
# fails here rather than on someone else's machine, and fails on a file gofmt
# would rewrite.
vet:
	go vet ./...
	GOARCH=arm64 go vet ./internal/tensor ./internal/nn
	test -z "$$(gofmt -l .)"

# lint runs the repo's own static-analysis suite (internal/lint; `go run
# ./cmd/fedmp-lint -rules` lists the rules): per-function checks over syntax
# and types plus the interprocedural goroleak and transitive (call-graph
# summaries across packages) — the reproducibility, hot-path and durability
# invariants DESIGN.md's "Static analysis" section describes.
lint:
	go run ./cmd/fedmp-lint ./...

# lint-fix-hints prints each finding with its suggested rewrite.
lint-fix-hints:
	go run ./cmd/fedmp-lint -hints ./...

# lint-bench times the full-repo lint — load, type-check, call-graph and
# summary solve, every rule — and fails if it exceeds the budget.
# The budget is generous (the point is catching an accidental exponential
# blow-up in the interprocedural layer, not micro-regressions); override
# with LINT_BUDGET=30s for a tighter local check. The per-rule wall-time
# breakdown lands next to the run in lint-bench.json.
LINT_BUDGET ?= 120s
lint-bench:
	go run ./cmd/fedmp-lint -bench $(LINT_BUDGET) -bench-json lint-bench.json ./...

# lint-stats prints the rule/finding/hatch inventory: how many analyzers are
# registered, what they currently find, and where the //fedmp:<rule>-ok
# suppressions sit.
lint-stats:
	go run ./cmd/fedmp-lint -stats ./...

# lint-hatches audits every //fedmp:<rule>-ok suppression comment against a
# hatch-blind re-lint and fails when any suppresses nothing — stale hatches
# silently widen what future edits get away with on that line.
lint-hatches:
	go run ./cmd/fedmp-lint -hatches ./...

# lint-mutants plants every bug of internal/lint/testdata/mutants.json — a
# wrong, dropped or repeated frame at each emission site, a doubled or dropped
# close of each channel, a dropped release of each file, socket and pooled
# buffer and mutex, an unchecked error store, a lock-bearing value copied, a
# grow-only workspace made to allocate every call — on a scratch
# copy of the module, one at a time, and records in lint-mutants.json which of
# go build, go vet, the named packages' tests (60 s timeout), go test -race on
# core/transport and each lint rule notices. It fails when a mutant that used
# to be caught is now caught by nothing. About an hour on two cores (the
# mutants that hang a test each wait out its timeout); tier-1 only checks that
# the corpus still applies (TestMutantCorpusApplies).
lint-mutants:
	go test -tags mutants -count=1 -run TestMutantMatrix -timeout 6h -v ./internal/lint

# fuzz-smoke gives each fuzz target a short budget: the wire-codec frame
# reader — which also holds every decode, accepted or refused, to its
# allocation bound — and the activation kernels against their scalar loops.
# Long campaigns stay manual; this catches the crashes a code change
# introduces.
FUZZTIME ?= 10s
fuzz-smoke:
	go test -run '^$$' -fuzz FuzzReadFrame -fuzztime $(FUZZTIME) ./internal/transport/codec
	go test -run '^$$' -fuzz FuzzActivations -fuzztime $(FUZZTIME) ./internal/tensor

# race runs the whole suite under the race detector; the concurrent round
# loop (quorum collection, worker rejoin, fault-injected engines), the
# row-sharded GEMM path and the buffer-reusing nn layers are the sensitive
# paths.
race:
	go test -race ./...

# bench-smoke runs one iteration of every `go test` micro-benchmark that is
# the only home of a measurement (EXPERIMENTS.md, "Where each retired row
# lives now"), so none of them stops compiling or starts failing unnoticed.
# It measures nothing; `bash benchmark/run.sh` does.
bench-smoke:
	go test -run '^$$' -benchtime 1x -bench 'GEMM|MatVec|Im2Col|Col2Im|Conv|SGDStep|TrainStep|PushPop|PopulationDevice|AgentSelect' ./internal/tensor ./internal/nn ./internal/simsched ./internal/cluster ./internal/bandit .

# test-kernels runs the tensor and nn suites once per micro-kernel tier (the
# layers' differential tests against the pre-rebuild code are bitwise, so
# they must hold on every tier), then the pinned trajectory grid
# (internal/core/testdata/run-grid.golden) on that tier at GOMAXPROCS 1 and 2:
# one file of hashes holds on all six. FEDMP_KERNEL forces the tier; a tier the
# host lacks falls back to the best available one (the tier-specific tests
# check KernelName and skip themselves), so the same loop passes on every
# machine. -count=1 because the variable is read in a package init, before
# the test cache starts tracking the environment.
test-kernels:
	FEDMP_KERNEL=generic go test -count=1 ./internal/tensor ./internal/nn
	FEDMP_KERNEL=generic GOMAXPROCS=1 go test -count=1 -run TestRunGridGolden ./internal/core
	FEDMP_KERNEL=generic GOMAXPROCS=2 go test -count=1 -run TestRunGridGolden ./internal/core
	FEDMP_KERNEL=sse go test -count=1 ./internal/tensor ./internal/nn
	FEDMP_KERNEL=sse GOMAXPROCS=1 go test -count=1 -run TestRunGridGolden ./internal/core
	FEDMP_KERNEL=sse GOMAXPROCS=2 go test -count=1 -run TestRunGridGolden ./internal/core
	FEDMP_KERNEL=avx2 go test -count=1 ./internal/tensor ./internal/nn
	FEDMP_KERNEL=avx2 GOMAXPROCS=1 go test -count=1 -run TestRunGridGolden ./internal/core
	FEDMP_KERNEL=avx2 GOMAXPROCS=2 go test -count=1 -run TestRunGridGolden ./internal/core

# test-exhaustive puts all 2^32 float32 inputs through SigmoidInto and TanhInto
# and demands the bits of the scalar loops over math.Exp and math.Tanh (tier-1
# runs every 251st pattern). A couple of minutes on two cores; run it after a
# change to act_amd64.s or a toolchain upgrade.
test-exhaustive:
	go test -count=1 -run TestActKernelsExhaustive -timeout 60m ./internal/tensor -exhaustive

# test-benchmark vets, tests and lints the nested benchmark module
# (BENCHMARK.json): `go test ./...` at the root does not see it, and it
# compiles against the internal/ API from outside.
test-benchmark:
	cd benchmark && go vet ./... && go test ./...
	cd benchmark && go run fedmp/cmd/fedmp-lint ./...

# loc prints the non-test Go lines and the assembly lines (.s and the .h
# files they include) per package — the figures every PR reports (ROADMAP: net
# line count is a metric).
loc:
	@printf '%6s %6s\n' go asm
	@go list -f '{{.ImportPath}} {{.Dir}}' ./... | while read pkg dir; do \
		printf '%6d %6d %s\n' $$(ls $$dir/*.go | grep -v _test.go | xargs cat | wc -l) \
			$$(cat /dev/null $$(ls $$dir/*.s $$dir/*.h 2>/dev/null) | wc -l) $$pkg; \
	done

check: vet lint build test test-kernels race

# ci is the offline continuous-integration entry point: the full check
# pipeline, the stale-hatch audit, a race-checked smoke of the concurrent
# paths — the whole simulated round at GOMAXPROCS 1 vs 8 (sharded Assign,
# cached-network training, fused aggregate; sync, async, shared-plan and
# population runs must match byte for byte), a parked device resuming in
# another cohort slot, and the pinned trajectory grid
# (internal/core/testdata/run-grid.golden), then the
# transport (two-worker loopback round over the binary wire codec, sim/wire
# parity, and a mid-run PS kill/restart that must recover from its
# checkpoint) — then an experiment smoke run (one static table plus one quick
# sim-backed figure) proving the experiment CLI still runs end to end.
# bench-smoke, among the prerequisites, runs each micro-benchmark once and
# fuzz-smoke each fuzz target for FUZZTIME.
ci: check lint-bench lint-hatches test-benchmark bench-smoke fuzz-smoke
	go test -race -count=1 -run 'TestParallelCohortDeterminism|TestParkedDeviceResumesInAnotherSlot|TestRunGridGolden' ./internal/core
	go test -race -run 'TestLoopbackSmoke|TestSimWire|TestPSKillRestartRecovery' ./internal/transport
	go run ./cmd/fedmp-bench -quick -exp table2,fig5
